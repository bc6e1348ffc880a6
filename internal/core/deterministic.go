package core

import (
	"fmt"

	"gridroute/internal/detroute"
	"gridroute/internal/engine"
	"gridroute/internal/grid"
	"gridroute/internal/ipp"
	"gridroute/internal/lattice"
	"gridroute/internal/sketch"
	"gridroute/internal/spacetime"
)

// DetConfig tunes the deterministic framework. The zero value follows the
// paper's parameters.
type DetConfig struct {
	// Horizon is the last simulated time step; 0 derives one from the
	// workload (spacetime.SuggestHorizon with slack 3).
	Horizon int64
	// PMax overrides the paper's path-length bound (0 = PMaxDet).
	PMax int
	// TileSide overrides k (0 = ⌈log₂(1+3·pmax)⌉).
	TileSide int
}

// ReqOutcome is the per-request result of the deterministic algorithm. Its
// words come first and its flags last, which packs it in 24 bytes.
type ReqOutcome struct {
	// DeliveredAt is the delivery time of a request Delivered on time.
	DeliveredAt int64
	// DroppedIn reports the detailed-routing part that preempted an
	// admitted, undelivered request.
	DroppedIn detroute.Part
	// Admitted: the ipp algorithm assigned a sketch path (the request was
	// injected).
	Admitted bool
	// Delivered on time (the only outcome that counts toward throughput).
	Delivered bool
	// ReachedLastTile marks ipp′ membership (Prop. 8).
	ReachedLastTile bool
}

// DetResult is the outcome of a deterministic run.
type DetResult struct {
	Grid    *grid.Grid
	Horizon int64
	PMax    int
	K       int

	Outcomes  []ReqOutcome
	Schedules []*spacetime.Schedule // nil unless delivered

	// Admitted is |ipp|, ReachedLastTile is |ipp′|, Throughput is |alg|
	// (Sec. 5.3 notation).
	Admitted        int
	ReachedLastTile int
	Throughput      int

	RouteStats detroute.Stats
	// MaxLoad and LoadBound report the Theorem 1 guarantee on the sketch
	// graph; PrimalValue is the dual-fitting certificate.
	MaxLoad     float64
	LoadBound   float64
	PrimalValue float64
}

// RunDeterministic executes Algorithm 1 on the request sequence (which must
// be sorted by arrival time). It handles deadlines, B = 0, and grids of
// dimension 1 ≤ d < detroute.MaxAxes; larger grids return an error.
func RunDeterministic(g *grid.Grid, reqs []grid.Request, cfg DetConfig) (*DetResult, error) {
	if i := grid.ValidateAll(g, reqs); i >= 0 {
		return nil, fmt.Errorf("core: invalid request at index %d: %v", i, reqs[i])
	}
	if g.B != 0 && (g.B < 3 || g.C < 3) {
		return nil, fmt.Errorf("core: deterministic algorithm requires B, c ≥ 3 (or B = 0, c ≥ 3); got B=%d c=%d", g.B, g.C)
	}
	if g.B == 0 && g.C < 3 {
		return nil, fmt.Errorf("core: bufferless variant requires c ≥ 3; got c=%d", g.C)
	}

	horizon := cfg.Horizon
	if horizon == 0 {
		horizon = spacetime.SuggestHorizon(g, reqs, 3)
	}
	pmax := cfg.PMax
	if pmax == 0 {
		pmax = PMaxDet(g)
	}
	k := cfg.TileSide
	if k == 0 {
		k = TileSideDet(pmax)
	}

	// Algorithm 1 decides one request at a time against the weights every
	// earlier decision left, so the batch run decides the (already
	// arrival-sorted) requests in order on this goroutine through
	// engine.Run: the engine's decide step and detailed routing, with its
	// warm sketch/packer state built once, and without the locks, queue and
	// clock reads that let concurrent producers share it. Its pooled
	// working memory goes back with Release once the loop below has copied
	// what the result keeps.
	fin, err := engine.Run(g, reqs, horizon, pmax, k)
	if err != nil {
		return nil, err
	}

	res := &DetResult{
		Grid: g, Horizon: horizon, PMax: pmax, K: k,
		Outcomes:    make([]ReqOutcome, len(reqs)),
		Schedules:   make([]*spacetime.Schedule, len(reqs)),
		Admitted:    len(fin.Admitted),
		RouteStats:  fin.RouteStats,
		MaxLoad:     fin.MaxLoad,
		LoadBound:   fin.LoadBound,
		PrimalValue: fin.PrimalValue,
	}
	for j, o := range fin.Outcomes {
		// Run numbers each packet by its request's index, not its ID:
		// RunDeterministic accepts arbitrary request sequences whose IDs
		// need not be 0..n−1.
		i := fin.Admitted[j].Req.ID
		ro := &res.Outcomes[i]
		ro.Admitted = true
		ro.ReachedLastTile = o.ReachedLastTile
		if o.ReachedLastTile {
			res.ReachedLastTile++
		}
		if o.Delivered && o.OnTime {
			ro.Delivered = true
			ro.DeliveredAt = o.DeliveredAt
			res.Throughput++
			// Re-point the engine-built schedule at the caller's request.
			s := fin.Schedules[j]
			s.Req = &reqs[i]
			res.Schedules[i] = s
		} else if o.Delivered {
			// Late delivery: counts as a loss; record as last-tile drop.
			ro.DroppedIn = detroute.PartLastTile
		} else {
			ro.DroppedIn = o.DroppedIn
		}
	}
	fin.Release()
	return res, nil
}

// LargeCapResult is the outcome of the Theorem 13 algorithm.
type LargeCapResult struct {
	Grid      *grid.Grid
	Horizon   int64
	PMax      int
	K         int
	BScaled   int
	CScaled   int
	Outcomes  []ReqOutcome
	Schedules []*spacetime.Schedule
	// Throughput equals Admitted: the algorithm is non-preemptive and
	// every accepted request is routed.
	Throughput  int
	MaxLoad     float64
	PrimalValue float64
}

// RunLargeCapacity executes the Theorem 13 algorithm for B, c ≥ k with
// B/c = n^{O(1)}: scale capacities to B′ = ⌊B/k⌋, c′ = ⌊c/k⌋ and run the
// ipp algorithm directly over the space-time graph. Accepted packets are
// routed along their packed paths without preemption; the Theorem 1 load
// bound k guarantees the unscaled capacities are respected.
func RunLargeCapacity(g *grid.Grid, reqs []grid.Request, cfg DetConfig) (*LargeCapResult, error) {
	if i := grid.ValidateAll(g, reqs); i >= 0 {
		return nil, fmt.Errorf("core: invalid request at index %d", i)
	}
	horizon := cfg.Horizon
	if horizon == 0 {
		horizon = spacetime.SuggestHorizon(g, reqs, 3)
	}
	pmax := cfg.PMax
	if pmax == 0 {
		pmax = PMaxDet(g)
	}
	k := cfg.TileSide
	if k == 0 {
		k = TileSideDet(pmax)
	}
	bs, cs := g.B/k, g.C/k
	if bs < 1 || cs < 1 {
		return nil, fmt.Errorf("core: Theorem 13 requires B, c ≥ k = %d; got B=%d c=%d", k, g.B, g.C)
	}

	// The scaled grid's space-time graph carries ⌊B/k⌋ and ⌊c/k⌋ as its own
	// capacities, so the unit-tile sketch over it is the packer's graph.
	st := spacetime.New(grid.New(g.Dims, bs, cs), horizon)
	sk := sketch.SpaceTime(st)
	pk := ipp.NewDense(pmax, sk.Cap, sk.Universe())
	sess := sk.NewSession()
	var route sketch.Route
	src := make([]int, g.D()+1)
	res := &LargeCapResult{
		Grid: g, Horizon: horizon, PMax: pmax, K: k, BScaled: bs, CScaled: cs,
		Outcomes:  make([]ReqOutcome, len(reqs)),
		Schedules: make([]*spacetime.Schedule, len(reqs)),
	}
	for i := range reqs {
		r := &reqs[i]
		st.ToLattice(r.Src, r.Arrival, src)
		wLo, wHi := st.DestRay(r)
		// A path of pmax edges visits pmax+1 unit tiles.
		if !sess.Offer(pk, src, r.Dst, wLo, wHi, pmax+1, &route) {
			continue
		}
		s := st.PathToSchedule(r, &lattice.Path{Start: src, Axes: route.Axes})
		res.Schedules[i] = s
		res.Outcomes[i] = ReqOutcome{Admitted: true, Delivered: true}
		_, endT := s.EndState()
		res.Outcomes[i].DeliveredAt = endT
		res.Throughput++
	}
	res.MaxLoad = pk.MaxLoad()
	res.PrimalValue = pk.PrimalValue()
	return res, nil
}
