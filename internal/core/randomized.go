package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"gridroute/internal/dense"
	"gridroute/internal/grid"
	"gridroute/internal/ipp"
	"gridroute/internal/lattice"
	"gridroute/internal/sketch"
	"gridroute/internal/spacetime"
	"gridroute/internal/tiling"
)

// Regime identifies which parameter regime of Table 2 a randomized run uses.
type Regime int

const (
	// RegimeSmall is B, c ∈ [1, log n] (Sec. 7.3–7.6).
	RegimeSmall Regime = iota
	// RegimeLargeBuffers is log n ≤ B/c ≤ n^{O(1)} (Sec. 7.7): τ = B/c, Q = 1.
	RegimeLargeBuffers
	// RegimeLargeCapacity is B ≤ log n ≤ c (Sec. 7.8): τ = 1, Q = log n/B.
	RegimeLargeCapacity
)

func (r Regime) String() string {
	switch r {
	case RegimeLargeBuffers:
		return "large-buffers"
	case RegimeLargeCapacity:
		return "large-capacity"
	default:
		return "small"
	}
}

// RandConfig tunes the randomized line algorithm. The zero value follows the
// paper's constants.
type RandConfig struct {
	Horizon int64
	// Gamma is the sparsification constant γ in λ = 1/(γ·k); the paper's
	// proof uses γ = 200, which is hopeless on laptop-scale instances, so
	// experiments may run an "engineering mode" with a small γ (E13
	// ablation). 0 means 200.
	Gamma float64
	// LoadCap is the sketch-edge admission threshold of Step 3 (paper: ¼).
	// 0 means 0.25.
	LoadCap float64
	// Branch forces the classify-and-select coin: 0 = fair coin, 1 = Far⁺
	// branch, 2 = Near branch. Used by tests and the decomposition bench.
	Branch int
}

// RandClass classifies a request under the drawn tiling.
type RandClass int

const (
	// ClassNear requests can be served inside their own tile.
	ClassNear RandClass = iota
	// ClassFar requests whose tile has no copy of their destination.
	ClassFar
	// ClassFarPlus are Far requests whose source lies in the SW quadrant.
	ClassFarPlus
)

// RandOutcome is the per-request result of the randomized algorithm.
type RandOutcome struct {
	Class       RandClass
	Admitted    bool // injected into the network
	Delivered   bool
	DeliveredAt int64
	// Stage records where a non-admitted request was rejected:
	// "branch", "prop14", "ipp", "coin", "load", "iroute", "near-busy".
	Stage string
}

// RandResult is the outcome of one randomized run.
type RandResult struct {
	Grid      *grid.Grid
	Horizon   int64
	Regime    Regime
	Tau, Q    int
	PhaseQ    int
	PhaseTau  int
	K         int
	Lambda    float64
	FarBranch bool

	Outcomes   []RandOutcome
	Schedules  []*spacetime.Schedule
	Throughput int

	// Pipeline counters (Sec. 7.4.3 chain algFar⁺ ⊆ ippλ¼ ⊆ ippλ ⊆ ipp(Far⁺)).
	NearTotal, FarTotal, FarPlusTotal int
	IPPAccepted                       int // |ipp(Far⁺|pmax)|
	CoinSurvived                      int // |ipp^λ|
	LoadSurvived                      int // |ipp^λ_{¼}|
	Injected                          int // |algFar⁺| or |algNear|
	// TXFailed counts T/X-routing constructions that failed; the packet is
	// then rejected before injection. The paper argues (Sec. 7.4) that with
	// its quotas this never happens: Step 3 keeps the flow on every sketch
	// edge below ¼ of its Raw capacity and the SW-exit quotas cap what each
	// tile injects, so the packets crossing a tile side are too few to block
	// every column or row a T- or X-bend can take. The detailed routing here
	// counts failures instead of assuming there are none.
	TXFailed int
	// Anomalies counts impossible states (must stay 0).
	Anomalies int
	MaxLoad   float64
}

// ceilDiv returns ⌈a/b⌉ for positive ints.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// evenAtLeast2 rounds x up to an even number ≥ 2.
func evenAtLeast2(x int) int {
	if x < 2 {
		return 2
	}
	if x%2 == 1 {
		return x + 1
	}
	return x
}

// randParams picks the regime and tile sides (Def. 15 and Secs. 7.7, 7.8).
func randParams(g *grid.Grid) (Regime, int, int, error) {
	n := g.N()
	l := int(math.Ceil(math.Log2(float64(n))))
	if l < 1 {
		l = 1
	}
	B, c := g.B, g.C
	switch {
	case B <= l && c <= l:
		var tau, q int
		if B*c < l {
			tau = evenAtLeast2(2 * ceilDiv(l, c))
			q = evenAtLeast2(2 * ceilDiv(l, B))
		} else {
			tau = evenAtLeast2(2 * B)
			q = evenAtLeast2(2 * c)
		}
		return RegimeSmall, tau, q, nil
	case c <= l: // B > log n: large buffers, needs B/c ≥ log n for the theorem
		tau := evenAtLeast2(B / c)
		return RegimeLargeBuffers, tau, 1, nil
	case B <= l: // c > log n
		q := evenAtLeast2(2 * ceilDiv(l, B))
		return RegimeLargeCapacity, 1, q, nil
	default:
		return 0, 0, 0, fmt.Errorf("core: B=%d, c=%d ≥ log n=%d: use RunLargeCapacity (Thm 13) instead", B, c, l)
	}
}

// occ tracks space-time edge occupancy for the non-preemptive detailed
// routing (capacities: c on the space axis, B on the w axis). Occupancy is a
// dense epoch-stamped array over the box's node×axis edge ids, so claims and
// probes are plain slice reads and a pooled occ is reusable across runs
// without reallocation.
type occ struct {
	box     *lattice.Box
	use     dense.Counts
	caps    [2]int
	journal []int32
}

// begin starts a claim transaction; rollback undoes claims made since.
func (o *occ) begin() { o.journal = o.journal[:0] }
func (o *occ) rollback() {
	for _, key := range o.journal {
		o.use.Add(int(key), -1)
	}
	o.journal = o.journal[:0]
}

func (o *occ) reset(box *lattice.Box, b, c int) {
	o.box = box
	o.caps = [2]int{c, b}
	o.use.Reset(box.Size() * 2)
	o.journal = o.journal[:0]
}

// runFree reports whether `steps` consecutive edges along axis starting at p
// all exist and have spare capacity.
func (o *occ) runFree(p []int, axis, steps int) bool {
	if steps <= 0 {
		return true
	}
	if o.caps[axis] <= 0 {
		return false
	}
	q := [2]int{p[0], p[1]}
	for s := 0; s < steps; s++ {
		if !o.box.Contains(q[:]) {
			return false
		}
		id := o.box.Index(q[:])
		if _, ok := o.box.Step(id, axis); !ok {
			return false
		}
		if o.use.Get(id*2+axis) >= o.caps[axis] {
			return false
		}
		q[axis]++
	}
	return true
}

// claimRun claims the run (must be checked first) and appends the moves.
func (o *occ) claimRun(p []int, axis, steps int, moves *[]uint8) {
	q := [2]int{p[0], p[1]}
	for s := 0; s < steps; s++ {
		id := o.box.Index(q[:])
		o.use.Add(id*2+axis, 1)
		o.journal = append(o.journal, int32(id*2+axis))
		q[axis]++
		*moves = append(*moves, uint8(axis))
	}
	p[0], p[1] = q[0], q[1]
}

// RunRandomized executes the Sec. 7 randomized algorithm on a
// uni-directional line. Requests must be sorted by arrival.
func RunRandomized(g *grid.Grid, reqs []grid.Request, cfg RandConfig, rng *rand.Rand) (*RandResult, error) {
	if g.D() != 1 {
		return nil, fmt.Errorf("core: the randomized algorithm is defined for lines (d=1); got d=%d", g.D())
	}
	if g.B < 1 || g.C < 1 {
		// Every regime B can reach divides by it (Def. 15 and Sec. 7.8).
		return nil, fmt.Errorf("core: the randomized algorithm needs B ≥ 1 and c ≥ 1; got B=%d c=%d (for a bufferless line use the deterministic bufferless variant, Thm 11)", g.B, g.C)
	}
	// Written as !(x >= 0) so that NaN fails too.
	if !(cfg.Gamma >= 0) || !(cfg.LoadCap >= 0) || cfg.Branch < 0 || cfg.Branch > 2 {
		return nil, fmt.Errorf("core: RandConfig needs Gamma ≥ 0, LoadCap ≥ 0 and Branch ∈ {0, 1, 2}; got Gamma=%v LoadCap=%v Branch=%d", cfg.Gamma, cfg.LoadCap, cfg.Branch)
	}
	if i := grid.ValidateAll(g, reqs); i >= 0 {
		return nil, fmt.Errorf("core: invalid request at index %d", i)
	}
	for i := range reqs {
		if reqs[i].HasDeadline() {
			return nil, fmt.Errorf("core: the randomized algorithm handles requests without deadlines (req %d has one)", i)
		}
	}

	regime, tau, q, err := randParams(g)
	if err != nil {
		return nil, err
	}
	horizon := cfg.Horizon
	if horizon == 0 {
		horizon = spacetime.SuggestHorizon(g, reqs, 3)
	}
	gamma := cfg.Gamma
	if gamma == 0 {
		gamma = 200
	}
	loadCap := cfg.LoadCap
	if loadCap == 0 {
		loadCap = 0.25
	}

	pmax := 4 * g.N()
	k := ipp.K(pmax)
	lambda := 1 / (gamma * float64(k))

	st := spacetime.New(g, horizon)
	phaseQ := rng.Intn(q)
	phaseTau := rng.Intn(tau)
	tl := tiling.New(st.Box, []int{q, tau}, []int{phaseQ, phaseTau})
	sk := sketch.New(st, tl, sketch.Raw)

	res := &RandResult{
		Grid: g, Horizon: horizon, Regime: regime,
		Tau: tau, Q: q, PhaseQ: phaseQ, PhaseTau: phaseTau,
		K: k, Lambda: lambda,
		Outcomes:  make([]RandOutcome, len(reqs)),
		Schedules: make([]*spacetime.Schedule, len(reqs)),
	}

	// Quadrant geometry per regime: the SW region is [0,xCut)×[0,wCut) in
	// tile offsets. Crossing constraints (Fig. 9 invariants: exit north at
	// w ≥ wMid, east at x ≥ xMid) are tracked separately because in the
	// degenerate regimes one axis has no split at all.
	var xCut, wCut int     // SW-region membership bounds
	var xCross, wCross int // minimum offsets for east/north crossings
	switch regime {
	case RegimeSmall:
		xCut, wCut = q/2, tau/2
		xCross, wCross = q/2, tau/2
	case RegimeLargeBuffers: // left half of a 1-row tile; no x split
		xCut, wCut = q, tau/2
		xCross, wCross = 0, tau/2
	default: // RegimeLargeCapacity: lower half of a 1-column tile; no w split
		xCut, wCut = q/2, tau
		xCross, wCross = q/2, 0
	}

	// Classification.
	srcPts := make([][]int, len(reqs))
	for i := range reqs {
		r := &reqs[i]
		p := st.SourcePoint(r)
		srcPts[i] = p
		tc := tl.TileOf(p, nil)
		off := tl.Offset(p, nil)
		dstTileRow := lattice.FloorDiv(r.Dst[0]-phaseQ, q)
		o := &res.Outcomes[i]
		if dstTileRow == tc[0] {
			o.Class = ClassNear
			res.NearTotal++
			continue
		}
		res.FarTotal++
		o.Class = ClassFar
		if off[0] < xCut && off[1] < wCut {
			o.Class = ClassFarPlus
			res.FarPlusTotal++
		}
	}

	// Classify-and-select coin.
	switch cfg.Branch {
	case 1:
		res.FarBranch = true
	case 2:
		res.FarBranch = false
	default:
		res.FarBranch = rng.Intn(2) == 1
	}

	// All per-run routing state (occupancy, lanes, quotas, sparsified flows)
	// is dense epoch-stamped arrays drawn from a pool, so repeated runs
	// (sweeps, retries) reallocate nothing once warm.
	scratch := randScratchPool.Get().(*randScratch)
	defer randScratchPool.Put(scratch)
	occupancy := &scratch.occ
	occupancy.reset(st.Box, g.B, g.C)

	// Prop. 14: at each (node, time) only the B+c closest requests compete.
	// planeOf[i] is the per-source arrival index of request i.
	planeOf := make([]int, len(reqs))
	{
		type key struct {
			node int
			t    int64
		}
		seen := make(map[key][]int)
		for i := range reqs {
			kk := key{g.Index(reqs[i].Src), reqs[i].Arrival}
			seen[kk] = append(seen[kk], i)
		}
		for _, idxs := range seen {
			// Keep the B+c with closest destinations (Prop. 14).
			lim := g.B + g.C
			if len(idxs) > lim {
				// Select by distance.
				ord := append([]int(nil), idxs...)
				for a := 1; a < len(ord); a++ {
					for b := a; b > 0; b-- {
						da := reqs[ord[b]].Dst[0] - reqs[ord[b]].Src[0]
						db := reqs[ord[b-1]].Dst[0] - reqs[ord[b-1]].Src[0]
						if da < db {
							ord[b], ord[b-1] = ord[b-1], ord[b]
						} else {
							break
						}
					}
				}
				for _, j := range ord[lim:] {
					planeOf[j] = -1
				}
				idxs = ord[:lim]
			}
			for p, j := range idxs {
				if planeOf[j] != -1 {
					planeOf[j] = p
				}
			}
		}
	}

	if res.FarBranch {
		rt := &randFarRouter{
			res: res, st: st, tl: tl, sk: sk, occ: occupancy,
			xCut: xCut, wCut: wCut, xCross: xCross, wCross: wCross, regime: regime,
			pk:      ipp.NewDense(pmax, sk.Cap, sk.Universe()),
			sess:    sk.NewSession(),
			planes:  g.B + g.C,
			flowLam: &scratch.flowLam, lanesH: &scratch.lanesH,
			lanesV: &scratch.lanesV, quota: &scratch.quota,
		}
		tiles := tl.TBox.Size()
		rt.flowLam.Reset(sk.Universe())
		rt.quota.Reset(tiles * 2)
		// Lane tables are only sized for the I-routing directions the regime
		// can use (7.7 routes only horizontally, 7.8 only vertically); the
		// unused table stays empty and is never indexed.
		if regime != RegimeLargeCapacity {
			rt.lanesH.Reset(tiles * rt.planes * tl.Side[0])
		}
		if regime != RegimeLargeBuffers {
			rt.lanesV.Reset(tiles * rt.planes * tl.Side[1])
		}
		cs := sk.RawCap(0)
		if w := sk.RawCap(1); w < cs {
			cs = w
		}
		rt.quotaMax = cs / 4
		if rt.quotaMax < 1 {
			rt.quotaMax = 1
		}
		for i := range reqs {
			o := &res.Outcomes[i]
			if o.Class != ClassFarPlus {
				o.Stage = "branch"
				continue
			}
			if planeOf[i] < 0 {
				o.Stage = "prop14"
				continue
			}
			rt.handle(i, &reqs[i], srcPts[i], planeOf[i], lambda, loadCap, rng)
		}
		res.MaxLoad = rt.pk.MaxLoad()
	} else {
		// Near branch: greedy vertical routing inside the tile (Sec. 7.5).
		for i := range reqs {
			o := &res.Outcomes[i]
			if o.Class != ClassNear {
				o.Stage = "branch"
				continue
			}
			if planeOf[i] < 0 {
				o.Stage = "prop14"
				continue
			}
			r := &reqs[i]
			p := srcPts[i]
			steps := r.Dst[0] - r.Src[0]
			if steps == 0 {
				res.deliver(i, r, p, nil, st)
				continue
			}
			if !occupancy.runFree(p, 0, steps) {
				o.Stage = "near-busy"
				continue
			}
			var moves []uint8
			pp := append([]int(nil), p...)
			occupancy.claimRun(pp, 0, steps, &moves)
			res.Injected++
			res.deliver(i, r, p, moves, st)
		}
	}

	return res, nil
}

// deliver finalizes a successful request: records the schedule and outcome.
func (res *RandResult) deliver(i int, r *grid.Request, start []int, moves []uint8, st *spacetime.Graph) {
	path := &lattice.Path{Start: append([]int(nil), start...), Axes: moves}
	s := st.PathToSchedule(r, path)
	res.Schedules[i] = s
	_, endT := s.EndState()
	res.Outcomes[i].Admitted = true
	res.Outcomes[i].Delivered = true
	res.Outcomes[i].DeliveredAt = endT
	res.Throughput++
}

// randScratch is the pooled per-run dense state of the randomized algorithm.
type randScratch struct {
	occ     occ
	flowLam dense.Counts // post-sparsification flows per sketch edge (Step 3)
	lanesH  dense.Counts // horizontal I-routing lanes: (tile·planes+plane)·q + xOffset
	lanesV  dense.Counts // vertical I-routing lanes: (tile·planes+plane)·τ + wOffset
	quota   dense.Counts // SW-exit quotas (invariant 6): tile·2 + side (0 north, 1 east)
}

var randScratchPool = sync.Pool{New: func() any { return new(randScratch) }}

// randFarRouter holds the Far⁺ pipeline state (Algorithm 2).
type randFarRouter struct {
	res    *RandResult
	st     *spacetime.Graph
	tl     *tiling.Tiling
	sk     *sketch.Graph
	occ    *occ
	pk     *ipp.Packer
	sess   *sketch.Session
	route  sketch.Route // Step 1's route, reused across requests
	regime Regime

	xCut, wCut     int
	xCross, wCross int
	quotaMax       int
	planes         int // I-routing planes per tile (B + c)

	flowLam *dense.Counts
	lanesH  *dense.Counts
	lanesV  *dense.Counts
	quota   *dense.Counts
}

func (rt *randFarRouter) handle(i int, r *grid.Request, src []int, plane int, lambda, loadCap float64, rng *rand.Rand) {
	o := &rt.res.Outcomes[i]
	// Step 1: online integral path packing over the sketch graph.
	wLo, wHi := rt.st.DestRay(r)
	if !rt.sess.Offer(rt.pk, src, r.Dst, wLo, wHi, rt.pk.PMax(), &rt.route) {
		o.Stage = "ipp"
		return
	}
	route := &rt.route
	rt.res.IPPAccepted++

	// Step 2: random sparsification.
	if rng.Float64() >= lambda {
		o.Stage = "coin"
		return
	}
	rt.res.CoinSurvived++

	// Step 3: ¼-load admission on every sketch edge of the path.
	for _, e := range route.Edges {
		if float64(rt.flowLam.Get(int(e))+1)/rt.sk.Cap(e) >= loadCap {
			o.Stage = "load"
			return
		}
	}
	for _, e := range route.Edges {
		rt.flowLam.Add(int(e), 1)
	}
	rt.res.LoadSurvived++

	// Step 4: I-routing out of the SW region, then T/X-routing tile by tile.
	path, ok := rt.detailedRoute(r, src, route, plane)
	if !ok {
		o.Stage = "iroute"
		return
	}
	rt.res.Injected++
	rt.res.deliver(i, r, src, path, rt.st)
}

// detailedRoute builds the full space-time path. It returns ok=false only
// for I-routing failures (pre-injection); failures after injection violate
// the paper's guarantee and increment Anomalies.
func (rt *randFarRouter) detailedRoute(r *grid.Request, src []int, route *sketch.Route, plane int) ([]uint8, bool) {
	tl := rt.tl
	org := tl.Origin(tl.TileOf(src, nil), nil)
	var moves []uint8
	p := append([]int(nil), src...)
	tile0 := route.Tiles[0]

	// --- I-routing (Sec. 7.4.2): straight out of the SW region. ---
	// Planes 0..B-1 route horizontally (buffer, w axis); planes B..B+c-1
	// vertically (links, x axis). Regimes 7.7/7.8 only use one direction.
	var horizontal bool
	switch rt.regime {
	case RegimeLargeBuffers:
		horizontal = true
	case RegimeLargeCapacity:
		if plane >= (3*rt.occ.caps[0])/4 { // first ¾·c go vertically
			return nil, false
		}
		horizontal = false
	default:
		horizontal = plane < rt.occ.caps[1] // caps[1] = B
	}
	if horizontal && rt.occ.caps[1] == 0 {
		return nil, false
	}
	var lanes *dense.Counts
	var laneIdx, quotaIdx, steps int
	if horizontal {
		lanes = rt.lanesH
		laneIdx = (tile0*rt.planes+plane)*rt.tl.Side[0] + (p[0] - org[0])
		quotaIdx = tile0*2 + 1 // east side
		steps = org[1] + rt.wCut - p[1]
	} else {
		lanes = rt.lanesV
		laneIdx = (tile0*rt.planes+plane)*rt.tl.Side[1] + (p[1] - org[1])
		quotaIdx = tile0 * 2 // north side
		steps = org[0] + rt.xCut - p[0]
	}
	if lanes.Get(laneIdx) != 0 {
		return nil, false
	}
	if rt.quota.Get(quotaIdx) >= rt.quotaMax {
		return nil, false
	}
	axis := 0
	if horizontal {
		axis = 1
	}
	// The algorithm is centralized: the entire detailed path is constructed
	// (and capacity claimed) at arrival time, so a packet is injected only
	// when its full route exists — non-preemption holds by construction.
	// Claims are transactional so a failed construction leaves no phantom
	// capacity behind.
	rt.occ.begin()
	if !rt.occ.runFree(p, axis, steps) {
		return nil, false
	}
	rt.occ.claimRun(p, axis, steps, &moves)

	ok := true
	for ti := 0; ok && ti+1 < len(route.Tiles); ti++ {
		exitAxis := int(route.Axes[ti])
		tc := rt.sk.TileCoords(route.Tiles[ti], nil)
		torg := tl.Origin(tc, nil)
		ok = rt.crossTile(p, torg, exitAxis, &moves)
	}
	if ok {
		// Last tile: straight north to the destination row.
		lastTC := rt.sk.TileCoords(route.Tiles[len(route.Tiles)-1], nil)
		lastOrg := tl.Origin(lastTC, nil)
		ok = rt.finishInTile(p, lastOrg, r.Dst[0], &moves)
	}
	if !ok {
		rt.occ.rollback()
		rt.res.TXFailed++
		return nil, false
	}
	lanes.Add(laneIdx, 1)
	rt.quota.Add(quotaIdx, 1)
	return moves, true
}

// bendRun claims an east-run of `east` steps followed by a north-run of
// `north` steps from p when both are free, advancing p and appending moves.
func (rt *randFarRouter) bendRun(p []int, east, north int, moves *[]uint8) bool {
	if !rt.occ.runFree(p, 1, east) {
		return false
	}
	probe := []int{p[0], p[1] + east}
	if !rt.occ.runFree(probe, 0, north) {
		return false
	}
	rt.occ.claimRun(p, 1, east, moves)
	rt.occ.claimRun(p, 0, north, moves)
	return true
}

// bendRunNE is the transposed variant: north first, then east.
func (rt *randFarRouter) bendRunNE(p []int, north, east int, moves *[]uint8) bool {
	if !rt.occ.runFree(p, 0, north) {
		return false
	}
	probe := []int{p[0] + north, p[1]}
	if !rt.occ.runFree(probe, 1, east) {
		return false
	}
	rt.occ.claimRun(p, 0, north, moves)
	rt.occ.claimRun(p, 1, east, moves)
	return true
}

// toNE implements the T-routing stage (Sec. 7.4.2, Fig. 9): a packet in the
// SE quadrant exits through the quadrant's north side (bending east to a
// free column first), a packet in the NW quadrant exits through its east
// side (bending north to a free row first). On success p lies in the NE
// quadrant.
func (rt *randFarRouter) toNE(p []int, torg []int, moves *[]uint8) bool {
	qSide, tSide := rt.tl.Side[0], rt.tl.Side[1]
	xMid := torg[0] + rt.xCross
	wMid := torg[1] + rt.wCross
	if p[0] < xMid {
		// SE quadrant (south/west entrants): travel east until a column
		// with a non-saturated vertical path to the quadrant's north side.
		start := p[1]
		if start < wMid {
			start = wMid
		}
		for wc := start; wc < torg[1]+tSide; wc++ {
			if rt.bendRun(p, wc-p[1], xMid-p[0], moves) {
				return true
			}
		}
		return false
	}
	if p[1] < wMid {
		// NW quadrant: travel north until a row with a free east path to
		// the quadrant's east side.
		for xr := p[0]; xr < torg[0]+qSide; xr++ {
			if rt.bendRunNE(p, xr-p[0], wMid-p[1], moves) {
				return true
			}
		}
		return false
	}
	return true // already in NE
}

// crossTile routes from p (inside the tile at torg) across the tile
// boundary along exitAxis: first T-routing into the NE quadrant, then
// X-routing out of it. Exits keep the Fig. 9 invariants: north crossings at
// w ≥ wMid, east crossings at x ≥ xMid.
func (rt *randFarRouter) crossTile(p []int, torg []int, exitAxis int, moves *[]uint8) bool {
	qSide, tSide := rt.tl.Side[0], rt.tl.Side[1]
	if !rt.toNE(p, torg, moves) {
		return false
	}
	if exitAxis == 0 {
		// X-routing, north exit: straight north when the column is free,
		// otherwise shift east to a free column first.
		for wc := p[1]; wc < torg[1]+tSide; wc++ {
			if rt.bendRun(p, wc-p[1], torg[0]+qSide-p[0], moves) {
				return true
			}
		}
		return false
	}
	// X-routing, east exit: straight east when the row is free, otherwise
	// shift north to a free row first.
	for xr := p[0]; xr < torg[0]+qSide; xr++ {
		if rt.bendRunNE(p, xr-p[0], torg[1]+tSide-p[1], moves) {
			return true
		}
	}
	return false
}

// finishInTile routes from p to the destination row b inside the last tile:
// straight north, shifting east to a free column when contended.
func (rt *randFarRouter) finishInTile(p []int, torg []int, b int, moves *[]uint8) bool {
	if p[0] > b {
		return false
	}
	if p[0] == b {
		return true
	}
	tSide := rt.tl.Side[1]
	for wc := p[1]; wc < torg[1]+tSide; wc++ {
		east := wc - p[1]
		north := b - p[0]
		if !rt.occ.runFree(p, 1, east) {
			continue
		}
		probe := []int{p[0], p[1] + east}
		if !rt.occ.runFree(probe, 0, north) {
			continue
		}
		rt.occ.claimRun(p, 1, east, moves)
		rt.occ.claimRun(p, 0, north, moves)
		return true
	}
	return false
}
