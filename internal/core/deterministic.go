package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"gridroute/internal/detroute"
	"gridroute/internal/engine"
	"gridroute/internal/grid"
	"gridroute/internal/optbound"
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
	// DPWorkers sizes the wavefront pool the admission DP runs on
	// (engine.Options.DPWorkers). 0 uses the process default set by
	// SetDefaultDPWorkers; ≤ 1 after defaulting keeps the DP serial.
	// Decisions are bit-identical at every setting.
	DPWorkers int
}

// defaultDPWorkers is the process-wide DP parallelism applied when
// DetConfig.DPWorkers is 0. It exists so experiment drivers with many
// literal DetConfig{...} sites can set parallelism once, at flag-parse
// time, without threading a value through every call.
var defaultDPWorkers atomic.Int32

// SetDefaultDPWorkers sets the DPWorkers value used by zero-valued
// DetConfig fields. n ≤ 1 means serial (the initial default).
func SetDefaultDPWorkers(n int) { defaultDPWorkers.Store(int32(n)) }

// dpWorkersOf resolves a config's DPWorkers against the process default.
func dpWorkersOf(cfg *DetConfig) int {
	if cfg.DPWorkers != 0 {
		return cfg.DPWorkers
	}
	return int(defaultDPWorkers.Load())
}

// ReqOutcome is the per-request result of the deterministic algorithm.
type ReqOutcome struct {
	// Admitted: the ipp algorithm assigned a sketch path (the request was
	// injected).
	Admitted bool
	// Delivered on time (the only outcome that counts toward throughput).
	Delivered   bool
	DeliveredAt int64
	// DroppedIn reports the detailed-routing part that preempted an
	// admitted, undelivered request.
	DroppedIn detroute.Part
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

	// The batch algorithm is the streaming engine fed sequentially: one
	// producer streams the (already arrival-sorted) requests through Admit,
	// which issues exactly the LightestRoute/Offer sequence of the old
	// in-line loop — results are byte-identical, and the engine's warm
	// sketch/packer state is built once, not per request.
	eng, err := engine.New(g, engine.Options{
		Horizon: horizon, PMax: pmax, TileSide: k,
		Queue: 1, ExpectPackets: len(reqs),
		DPWorkers: dpWorkersOf(&cfg),
	})
	if err != nil {
		return nil, err
	}

	res := &DetResult{
		Grid: g, Horizon: horizon, PMax: pmax, K: k,
		Outcomes:  make([]ReqOutcome, len(reqs)),
		Schedules: make([]*spacetime.Schedule, len(reqs)),
	}

	ctx := context.Background()
	for i := range reqs {
		// Seq is the request's index, not its ID: RunDeterministic accepts
		// arbitrary request sequences whose IDs need not be 0..n−1.
		pkt := engine.PacketOf(&reqs[i])
		pkt.Seq = i
		dec, aerr := eng.Admit(ctx, pkt)
		if aerr != nil {
			return nil, aerr
		}
		res.Outcomes[i].Admitted = dec.Admitted()
	}
	if err := eng.Drain(ctx); err != nil {
		return nil, err
	}
	fin, err := eng.Finish()
	if err != nil {
		return nil, err
	}

	res.Admitted = len(fin.Admitted)
	res.MaxLoad = fin.MaxLoad
	res.LoadBound = fin.LoadBound
	res.PrimalValue = fin.PrimalValue
	res.RouteStats = fin.RouteStats
	for j, o := range fin.Outcomes {
		i := fin.Admitted[j].Req.ID // the Seq stamped above
		ro := &res.Outcomes[i]
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

	st := spacetime.New(g, horizon)
	sp := optbound.NewSTPacker(st, float64(bs), float64(cs), pmax)
	res := &LargeCapResult{
		Grid: g, Horizon: horizon, PMax: pmax, K: k, BScaled: bs, CScaled: cs,
		Outcomes:  make([]ReqOutcome, len(reqs)),
		Schedules: make([]*spacetime.Schedule, len(reqs)),
	}
	for i := range reqs {
		r := &reqs[i]
		path, ok := sp.Offer(r)
		if !ok {
			continue
		}
		s := st.PathToSchedule(r, path)
		res.Schedules[i] = s
		res.Outcomes[i] = ReqOutcome{Admitted: true, Delivered: true}
		_, endT := s.EndState()
		res.Outcomes[i].DeliveredAt = endT
		res.Throughput++
	}
	res.MaxLoad = sp.Packer().MaxLoad()
	res.PrimalValue = sp.Packer().PrimalValue()
	return res, nil
}
