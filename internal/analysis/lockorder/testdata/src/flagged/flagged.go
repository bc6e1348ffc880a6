// Package flagged writes versioned weight state without the preceding
// version bump incremental consumers rely on: one commit forgets p.version++
// entirely, one bumps only after the write, another bumps the wrong counter.
package flagged

type packer struct {
	version uint64
	epoch   uint64
	// xs and x are the live weight state; warm-start consumers trust an
	// unchanged version to mean unchanged weights.
	//gridroute:versioned
	xs []float64
	//gridroute:versioned
	x map[int]float64
}

func (p *packer) Version() uint64 { return p.version }

func (p *packer) commit(e int) {
	p.version++
	p.xs[e] = 1
}

func (p *packer) commitMissedBump(e int) {
	p.xs[e] = 1 // want `write to versioned field xs without a preceding version bump`
}

func (p *packer) commitBumpAfter(e int) {
	p.xs[e] *= 2 // want `write to versioned field xs without a preceding version bump`
	p.version++
}

func (p *packer) commitWrongCounter(e int) {
	p.epoch++
	p.x[e] += 1 // want `write to versioned field x without a preceding version bump`
}
