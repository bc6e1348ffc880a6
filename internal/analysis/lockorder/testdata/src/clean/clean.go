// Package clean follows the lockorder contract: every write to versioned
// weight state follows a version bump in the same function, unversioned
// fields are free to change, and the allow hatch covers a reviewed
// exception.
package clean

type packer struct {
	version uint64
	//gridroute:versioned
	xs    []float64
	flows []int32
}

func (p *packer) Version() uint64 { return p.version }

func (p *packer) commit(e int) {
	p.version++
	p.xs[e] = 1
}

func (p *packer) count(e int) {
	p.flows[e]++
}

func (p *packer) seed(e int) {
	p.xs[e] = 0.5 //gridlint:allow fixture setup before any consumer has read a version
}
