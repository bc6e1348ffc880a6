// Package ipp implements the online integral path packing algorithm of
// Theorem 1 / Appendix E of Even–Medina, following the Buchbinder–Naor
// primal–dual framework [BN06, BN09a].
//
// The packer maintains a weight x_e per edge, initially 0.
// For each connection request the caller's oracle finds a lightest legal
// path p (at most pmax edges) under the current weights. If its cost
// α(p) = Σ_{e∈p} x_e is < 1 the request is routed along p and each edge
// weight is updated as
//
//	x_e ← x_e·2^{1/c(e)} + (2^{1/c(e)} − 1)/pmax,
//
// otherwise the request is rejected. The packer also maintains the primal
// objective Σ_e x_e·c(e) + Σ_i z_i, which by weak duality upper-bounds the
// optimal fractional throughput over paths of ≤ pmax edges — this is the
// certified OPT upper bound used across the benchmark harness (DESIGN.md §2).
//
// Edge state lives in flat slices over a known edge universe (a space-time
// box has exactly box.Size()·(d+1) edge ids), so the lightest-path DP
// indexes the weight slice directly (see lattice.DP.RunFlat). The packer
// memoizes the per-capacity constants 2^{1/c} and (2^{1/c}−1)/pmax — a grid
// has at most two distinct finite capacities (B and c), so after warm-up
// Offer never calls math.Exp2.
//
// Guarantees (Thm 1): throughput ≥ ½·opt_f, and every edge load
// flow(e)/c(e) is at most log₂(1 + 3·pmax).
package ipp

import "math"

// EdgeID identifies an edge in the caller's graph. Callers choose their own
// id scheme (lattice edges, interior edges of split tiles, …); ids must lie
// in [0, universe) of the packer's NewDense call.
type EdgeID int64

// CapFunc returns an edge capacity. Capacities must be ≥ 1 (Thm 1
// assumption) or +Inf for uncapacitated edges (e.g. sink edges), which are
// never weighted nor counted in the primal objective.
type CapFunc func(EdgeID) float64

// capMemo caches the weight-update constants of one distinct capacity.
type capMemo struct {
	c   float64 // the capacity
	g   float64 // 2^{1/c}
	add float64 // (2^{1/c} − 1)/pmax
}

// Packer is the online integral path packing state.
type Packer struct {
	pmax float64
	cap  CapFunc

	// Edge weights and flows, indexed by EdgeID.
	//gridroute:versioned
	xs    []float64
	flows []int32

	// memo holds the constants per distinct finite capacity seen so far.
	// Grids have ≤ 2 entries (B and c), so lookup is a short linear scan.
	memo []capMemo

	accepted    int
	rejected    int
	primalEdges float64 // Σ x_e·c(e)
	primalZ     float64 // Σ z_i
	maxLoad     float64

	// version counts committed paths: a consumer holding weights derived
	// from version v — the sketch session's warm-start skip — knows they are
	// current while it is unchanged.
	version uint64
}

// NewDense creates a packer for paths of at most pmax edges whose edge state
// lives in flat slices over the id universe [0, universe). Steady-state
// Offer calls are allocation-free, and Weights exposes the weight slice for
// direct indexing by lightest-path oracles.
func NewDense(pmax int, capFn CapFunc, universe int) *Packer {
	if pmax < 1 {
		panic("ipp: pmax must be ≥ 1")
	}
	if universe < 1 {
		panic("ipp: dense universe must be ≥ 1")
	}
	return &Packer{
		pmax:  float64(pmax),
		cap:   capFn,
		xs:    make([]float64, universe),
		flows: make([]int32, universe),
	}
}

// PMax returns the path-length bound.
func (p *Packer) PMax() int { return int(p.pmax) }

// Weights returns the weight slice, indexed by EdgeID. Oracles use it to
// read edge weights without a call per edge; they must not write to it.
func (p *Packer) Weights() []float64 { return p.xs }

// Weight returns the current weight x_e. The caller's lightest-path oracle
// uses this as the edge length.
func (p *Packer) Weight(e EdgeID) float64 { return p.xs[e] }

// Cost returns α(path) = Σ x_e over the given edges.
func (p *Packer) Cost(path []EdgeID) float64 {
	var c float64
	for _, e := range path {
		c += p.xs[e]
	}
	return c
}

// growth returns the memoized weight-update constants for capacity ce.
//
//gridroute:hotpath
func (p *Packer) growth(ce float64) (g, add float64) {
	for i := range p.memo {
		if p.memo[i].c == ce {
			return p.memo[i].g, p.memo[i].add
		}
	}
	g = math.Exp2(1 / ce)
	add = (g - 1) / p.pmax
	p.memo = append(p.memo, capMemo{c: ce, g: g, add: add})
	return g, add
}

// Offer processes one request whose lightest legal path (as computed by the
// caller's oracle under Weight) is path with total weight cost. It returns
// true if the request is accepted, in which case the path is committed and
// weights are updated. Offering a nil path (no legal path exists) rejects.
//
// The caller must pass cost consistent with Cost(path); it is a parameter
// only to let oracles avoid a second traversal.
//
//gridroute:hotpath
func (p *Packer) Offer(path []EdgeID, cost float64) bool {
	if path == nil || cost >= 1 {
		p.rejected++
		return false
	}
	if len(path) > int(p.pmax) {
		// Oracle bug guard: legal paths must have ≤ pmax edges.
		panic("ipp: offered path longer than pmax")
	}
	p.commit(path)
	p.primalZ += 1 - cost
	p.accepted++
	return true
}

// commit applies the weight update to every edge of an accepted path.
//
//gridroute:hotpath
func (p *Packer) commit(path []EdgeID) {
	p.version++
	for _, e := range path {
		ce := p.cap(e)
		f := p.flows[e] + 1
		p.flows[e] = f
		if math.IsInf(ce, 1) {
			// Uncapacitated edges keep weight 0 (2^{1/∞} = 1, additive term 0).
			continue
		}
		g, add := p.growth(ce)
		old := p.xs[e]
		nw := old*g + add
		p.xs[e] = nw
		p.primalEdges += (nw - old) * ce
		if load := float64(f) / ce; load > p.maxLoad {
			p.maxLoad = load
		}
	}
}

// Version returns the number of committed paths so far. It increases by
// exactly one per accepted Offer, so a consumer holding weights derived from
// version v knows the weight state is unchanged while Version() == v — the
// contract the sketch session's warm-start skip builds on.
func (p *Packer) Version() uint64 { return p.version }

// Accepted returns the number of routed requests (the dual objective).
func (p *Packer) Accepted() int { return p.accepted }

// Rejected returns the number of rejected requests.
func (p *Packer) Rejected() int { return p.rejected }

// Flow returns the number of committed paths using edge e.
func (p *Packer) Flow(e EdgeID) int { return int(p.flows[e]) }

// Load returns flow(e)/c(e).
func (p *Packer) Load(e EdgeID) float64 {
	f := p.Flow(e)
	if f == 0 {
		return 0
	}
	return float64(f) / p.cap(e)
}

// MaxLoad returns the maximum edge load committed so far. Theorem 1
// guarantees MaxLoad ≤ log₂(1 + 3·pmax).
func (p *Packer) MaxLoad() float64 { return p.maxLoad }

// LoadBound returns the Theorem 1 load bound log₂(1 + 3·pmax).
func (p *Packer) LoadBound() float64 { return math.Log2(1 + 3*p.pmax) }

// PrimalValue returns Σ_e x_e·c(e) + Σ_i z_i. It is a feasible primal
// (covering) solution value and hence an upper bound on the optimal
// fractional throughput over paths with at most pmax edges, restricted to
// the requests offered so far. Thm 1's proof gives PrimalValue ≤ 2·Accepted.
func (p *Packer) PrimalValue() float64 { return p.primalEdges + p.primalZ }

// K returns the tile-side parameter k = ⌈log₂(1 + 3·pmax)⌉ used by the
// deterministic and randomized algorithms.
func K(pmax int) int {
	return int(math.Ceil(math.Log2(1 + 3*float64(pmax))))
}
