// Allocation-regression tests: the steady-state hot paths of the packer,
// the lattice DP, and the schedule verifier must not allocate. These gates
// back the BENCH_hotpath.json trajectory — a regression here is a perf bug
// even while all behavioural tests stay green.
package gridroute

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"gridroute/internal/core"
	"gridroute/internal/engine"
	"gridroute/internal/fault"
	"gridroute/internal/grid"
	"gridroute/internal/ipp"
	"gridroute/internal/lattice"
	"gridroute/internal/netsim"
	"gridroute/internal/scenario"
	"gridroute/internal/sketch"
	"gridroute/internal/spacetime"
)

func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
}

// TestOfferDenseSteadyStateAllocFree: after warm-up (capacity memo filled),
// dense-mode Packer.Offer must allocate nothing.
func TestOfferDenseSteadyStateAllocFree(t *testing.T) {
	skipIfRace(t)
	caps := []float64{3, 5}
	capFn := func(e ipp.EdgeID) float64 { return caps[int(e)%2] }
	p := ipp.NewDense(1<<20, capFn, 256)
	path := []ipp.EdgeID{0, 1, 2, 3, 4, 5}
	p.Offer(path, p.Cost(path)) // warm the capacity memo
	allocs := testing.AllocsPerRun(100, func() {
		p.Offer(path, 0)
	})
	if allocs != 0 {
		t.Fatalf("steady-state dense Offer allocates %v/run, want 0", allocs)
	}
}

// TestDPRunWarmAllocFree: a warm DP (buffers grown once) must run the flat
// relaxation without allocating.
func TestDPRunWarmAllocFree(t *testing.T) {
	skipIfRace(t)
	b := lattice.NewBox([]int{0, 0}, []int{24, 24})
	edgeX := make([]float64, b.Size()*2)
	nodeX := make([]float64, b.Size())
	rng := rand.New(rand.NewSource(41))
	for i := range edgeX {
		edgeX[i] = rng.Float64()
	}
	dp := b.NewDP()
	dp.RunFlatBounded(b.Lo, b.Hi, edgeX, nodeX, lattice.Inf) // warm the window buffers
	allocs := testing.AllocsPerRun(50, func() {
		dp.RunFlatBounded(b.Lo, b.Hi, edgeX, nodeX, lattice.Inf)
	})
	if allocs != 0 {
		t.Fatalf("warm DP.RunFlatBounded allocates %v/run, want 0", allocs)
	}
}

// TestReplayWarmAllocFree: a warm (Incremental, Result) pair must replay a
// schedule set without allocating, in both node models.
func TestReplayWarmAllocFree(t *testing.T) {
	skipIfRace(t)
	g := grid.Line(48, 3, 3)
	reqs := scenario.Uniform(g, 96, 64, rand.New(rand.NewSource(42)))
	res, err := core.RunDeterministic(g, reqs, core.DetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var inc netsim.Incremental
	var out netsim.Result
	for _, model := range []netsim.Model{netsim.Model1, netsim.Model2} {
		inc.ReplayInto(g, reqs, res.Schedules, model, &out) // warm buffers
		allocs := testing.AllocsPerRun(20, func() {
			inc.ReplayInto(g, reqs, res.Schedules, model, &out)
		})
		if allocs != 0 {
			t.Fatalf("%v: warm ReplayInto allocates %v/run, want 0", model, allocs)
		}
		if len(out.Violation) != 0 {
			t.Fatalf("%v: deterministic schedules violate constraints: %v", model, out.Violation)
		}
	}
}

// The gated packets on saturateEngine's Line(64,3,3), whose tile side is
// k = 16. dpPacket's route window spans three spatial tiles, so its query
// runs the DP. chainPacket's source and destination share the tile
// [16, 32), so its window is a chain of tiles along w and its query takes
// the chain path, which runs no DP.
var (
	dpPacket    = engine.Packet{Src: grid.Vec{4}, Dst: grid.Vec{40}, Deadline: grid.InfDeadline}
	chainPacket = engine.Packet{Src: grid.Vec{17}, Dst: grid.Vec{30}, Deadline: grid.InfDeadline}
)

// saturateEngine builds a Line(64,3,3) engine with the given options and
// admits pkt until the packer cost-rejects it, returning the engine: every
// further admit of pkt takes the steady-state cost-reject path.
func saturateEngine(t *testing.T, opts engine.Options, pkt engine.Packet) *engine.Engine {
	t.Helper()
	g := grid.Line(64, 3, 3)
	opts.Horizon = 256
	opts.PMax = core.PMaxDet(g)
	eng, err := engine.New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; ; i++ {
		dec, err := eng.Admit(ctx, pkt)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Verdict == engine.RejectedCost {
			return eng
		}
		if i > 1<<20 {
			t.Fatal("packer never saturated")
		}
	}
}

// checkAdmitAllocFree runs saturateEngine's steady state once per admit
// path and gated packet, and fails the test if any allocates. "inline" has
// no injector, so a lone producer's Admit decides on its own goroutine
// (warm sketch session query on the caller's packet, packer offer, the
// decision returned directly: no envelope, no reply channel); "loop"
// attaches an empty fault.Injector, which keeps every Admit on the queued
// path (envelope pool, bounded queue, consumer loop, the same decide,
// buffered reply).
func checkAdmitAllocFree(t *testing.T, opts engine.Options) {
	t.Helper()
	for _, path := range []string{"inline", "loop"} {
		for _, pk := range []struct {
			name string
			pkt  engine.Packet
		}{{"dp", dpPacket}, {"chain", chainPacket}} {
			o := opts
			if path == "loop" {
				o.Injector = fault.NewInjector(nil)
			}
			checkSteadyAdmitAllocFree(t, path+"/"+pk.name, saturateEngine(t, o, pk.pkt), pk.pkt)
		}
	}
}

// checkSteadyAdmitAllocFree fails the test if a further admit of pkt on the
// saturated engine eng allocates or leaves the cost-reject steady state,
// then drains eng.
func checkSteadyAdmitAllocFree(t *testing.T, name string, eng *engine.Engine, pkt engine.Packet) {
	t.Helper()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		dec, err := eng.Admit(ctx, pkt)
		if err != nil || dec.Verdict != engine.RejectedCost {
			t.Fatalf("%s: steady state broken: %+v, %v", name, dec, err)
		}
	})
	if allocs != 0 {
		t.Errorf("%s: warm engine Admit allocates %v/run, want 0", name, allocs)
	}
	if err := eng.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestEngineAdmitWarmAllocFree: the streaming admit path of the default
// engine must not allocate once warm, on both the inline and the queued
// path (see checkAdmitAllocFree). The gate pins the saturated cost-reject
// steady state: dpPacket's query runs the full DP on every admit, and
// chainPacket's the chain walk; the accept path additionally retains the
// route into chunked arenas, which is amortized O(1) per accept but not 0.
func TestEngineAdmitWarmAllocFree(t *testing.T) {
	skipIfRace(t)
	checkAdmitAllocFree(t, engine.Options{})
}

// TestEngineAdmitWarmStartAllocFree: the same gate under a resource outage
// that stands from the engine's start, so every admit answers its query with
// LightestRouteMasked, which writes +Inf at the blocked ids of the live
// weights and restores them. Once the session's save slice has grown, that
// must allocate nothing. The outage fails node 60 over the whole horizon;
// its tile, [48, 64), lies outside both gated packets' windows, so the
// steady state is still the cost reject. An injector keeps every admit on
// the queued path. The name is the deleted warm-start skip's gate;
// TestEngineAdmitWarmAllocFree pins the default engine.
func TestEngineAdmitWarmStartAllocFree(t *testing.T) {
	skipIfRace(t)
	sched, err := fault.Parse("outage(node=60,t=0-256)")
	if err != nil {
		t.Fatal(err)
	}
	for _, pk := range []struct {
		name string
		pkt  engine.Packet
	}{{"dp", dpPacket}, {"chain", chainPacket}} {
		eng := saturateEngine(t, engine.Options{Injector: fault.NewInjector(sched)}, pk.pkt)
		checkSteadyAdmitAllocFree(t, "outage/"+pk.name, eng, pk.pkt)
	}
}

// TestEngineAdmitCancelNoLeak: the leak audit for abandoned waits. An Admit
// whose context is already cancelled may abandon the reply; the consumer then
// reclaims the pooled envelope itself. If that handoff leaked, every
// cancelled Admit would allocate a fresh envelope (struct + reply channel) —
// so a warm cancel/admit mix must stay 0-alloc, like the plain warm path.
func TestEngineAdmitCancelNoLeak(t *testing.T) {
	skipIfRace(t)
	pkt := dpPacket
	eng := saturateEngine(t, engine.Options{}, pkt)
	ctx := context.Background()
	dead, cancel := context.WithCancel(ctx)
	cancel()
	allocs := testing.AllocsPerRun(200, func() {
		// Abandoned wait: the packet is queued, the wait is not. The consumer
		// decides it and recycles the envelope.
		if _, err := eng.Admit(dead, pkt); err == nil {
			// The reply can still win the race against the cancelled context;
			// both exits recycle exactly one envelope.
			_ = err
		}
		// A live Admit right after decides inline if the loop has already
		// settled the abandoned packet; otherwise it queues behind it and
		// must find a pooled envelope again.
		dec, err := eng.Admit(ctx, pkt)
		if err != nil || dec.Verdict != engine.RejectedCost {
			t.Fatalf("steady state broken: %+v, %v", dec, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cancelled Admit path allocates %v/run, want 0 (envelope leak)", allocs)
	}
	if err := eng.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.Decided() != s.Submitted {
		t.Fatalf("abandoned packets unaccounted: decided %d != submitted %d", s.Decided(), s.Submitted)
	}
}

// TestSTPackerLightestPathWarmAllocFree: the space-time query of the dual
// certificate and the Theorem 13 algorithm allocates nothing once its Route
// is warm: an unbounded LightestRouteInto on a SpaceTime session (every call
// runs the DP and the destination-ray scan), and the bounded Session.Offer
// step. The name is the space-time packer's, whose queries the session took
// over.
func TestSTPackerLightestPathWarmAllocFree(t *testing.T) {
	skipIfRace(t)
	g := grid.Line(32, 3, 3)
	st := spacetime.New(g, 64)
	sk := sketch.SpaceTime(st)
	pmax := core.PMaxDet(g)
	pk := ipp.NewDense(pmax, sk.Cap, sk.Universe())
	sess := sk.NewSession()
	r := &grid.Request{Src: grid.Vec{2}, Dst: grid.Vec{20}, Arrival: 1, Deadline: grid.InfDeadline}
	src := make([]int, 2)
	var out sketch.Route
	query := func(offer bool) bool {
		st.ToLattice(r.Src, r.Arrival, src)
		wLo, wHi := st.DestRay(r)
		if offer {
			return sess.Offer(pk, src, r.Dst, wLo, wHi, pmax+1, &out)
		}
		return sess.LightestRouteInto(pk, src, r.Dst, wLo, wHi, pmax+1, &out)
	}
	if !query(false) {
		t.Fatal("no path on an empty lattice")
	}
	if allocs := testing.AllocsPerRun(20, func() { query(false) }); allocs != 0 {
		t.Fatalf("warm LightestRouteInto allocates %v/run, want 0", allocs)
	}
	if !query(true) { // warms the packer's capacity memo
		t.Fatal("first offer on an empty lattice rejected")
	}
	if allocs := testing.AllocsPerRun(20, func() { query(true) }); allocs != 0 {
		t.Fatalf("warm Session.Offer allocates %v/run, want 0", allocs)
	}
}

// TestFinishAllocsConstant: Finish allocates a fixed number of per-run
// slabs (detailed routing's packets, coordinates, moves and index lists,
// the outcomes and paths, the schedules' structs, source nodes and moves),
// not one object per packet, so its allocation count is the same on
// uniform at seed 1 and on an instance 4× larger in nodes, requests and
// arrival span. A per-packet allocation coming back breaks the equality, and
// so does a moves bound that is too small: each packet's moves are cut from
// one slab at its bound, and an append past it reallocates. Some packet on
// each instance walks exactly its bound.
func TestFinishAllocsConstant(t *testing.T) {
	skipIfRace(t)
	finishAllocs := func(params map[string]float64) uint64 {
		g, reqs, err := scenario.Generate("uniform", params)
		if err != nil {
			t.Fatal(err)
		}
		pmax := core.PMaxDet(g)
		eng, err := engine.New(g, engine.Options{
			Horizon: spacetime.SuggestHorizon(g, reqs, 3), PMax: pmax, TileSide: core.TileSideDet(pmax), Queue: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for i := range reqs {
			if _, err := eng.Admit(ctx, engine.PacketOf(&reqs[i])); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := eng.Finish()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Throughput == 0 {
			t.Fatal("nothing delivered on time")
		}
		return after.Mallocs - before.Mallocs
	}
	small := finishAllocs(map[string]float64{"seed": 1})
	large := finishAllocs(map[string]float64{"seed": 1, "n": 256, "reqs": 800, "maxt": 512})
	if small != large || small > 16 {
		t.Fatalf("Finish allocates %d times on uniform and %d times on a 4× larger instance, want the same count of at most 16", small, large)
	}
}

// TestRunDeterministicWarmBytes: a warm batch run allocates at most 512
// bytes per request. engine.Run draws its arena, admitted list and
// detailed-routing slabs from a pool that core.RunDeterministic hands them
// back to, so once a run of the same instance has grown them, what a run
// allocates is its geometry (space-time graph, tiling, sketch, packer) and
// the result the caller keeps. The gate runs on uniform at seed 1 and on
// TestFinishAllocsConstant's 4× instance, each as a warm-up run and a
// measured run back to back. sync.Pool keeps an item private to the P it
// was put on, so a goroutine moved to another P between the two runs, or
// two collections between them, hand the measured run a fresh workspace;
// the gate takes the best of 3 pairs.
func TestRunDeterministicWarmBytes(t *testing.T) {
	skipIfRace(t)
	const limit = 512
	for _, params := range []map[string]float64{
		{"seed": 1},
		{"seed": 1, "n": 256, "reqs": 800, "maxt": 512},
	} {
		g, reqs, err := scenario.Generate("uniform", params)
		if err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		for range 3 {
			var before, after runtime.MemStats
			if _, err := core.RunDeterministic(g, reqs, core.DetConfig{}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			_, err := core.RunDeterministic(g, reqs, core.DetConfig{})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			best = min(best, float64(after.TotalAlloc-before.TotalAlloc)/float64(len(reqs)))
		}
		if best > limit {
			t.Errorf("uniform %v: a warm RunDeterministic allocates %.0f bytes per request, want at most %d", params, best, limit)
		}
		t.Logf("uniform %v: %d requests, %.0f bytes per request", params, len(reqs), best)
	}
}
