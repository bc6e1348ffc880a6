// Allocation-regression tests: the steady-state hot paths of the packer,
// the lattice DP, and the schedule verifier must not allocate. These gates
// back the BENCH_hotpath.json trajectory — a regression here is a perf bug
// even while all behavioural tests stay green.
package gridroute

import (
	"math/rand"
	"testing"

	"context"

	"gridroute/internal/core"
	"gridroute/internal/engine"
	"gridroute/internal/fault"
	"gridroute/internal/grid"
	"gridroute/internal/ipp"
	"gridroute/internal/lattice"
	"gridroute/internal/netsim"
	"gridroute/internal/optbound"
	"gridroute/internal/scenario"
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
	src := []int{0, 0}
	dp.RunFlat(b.Lo, b.Hi, src, edgeX, nodeX) // warm the window buffers
	allocs := testing.AllocsPerRun(50, func() {
		dp.RunFlat(b.Lo, b.Hi, src, edgeX, nodeX)
	})
	if allocs != 0 {
		t.Fatalf("warm DP.RunFlat allocates %v/run, want 0", allocs)
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
// (envelope pool, warm sketch session query, packer offer, buffered reply);
// "loop" attaches an empty fault.Injector, which keeps every Admit on the
// queued path (envelope pool, bounded queue, consumer loop, the same
// decide, reply).
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
			eng := saturateEngine(t, o, pk.pkt)
			ctx := context.Background()
			allocs := testing.AllocsPerRun(200, func() {
				dec, err := eng.Admit(ctx, pk.pkt)
				if err != nil || dec.Verdict != engine.RejectedCost {
					t.Fatalf("%s/%s: steady state broken: %+v, %v", path, pk.name, dec, err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s/%s: warm engine Admit allocates %v/run, want 0", path, pk.name, allocs)
			}
			if err := eng.Drain(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestEngineAdmitWarmAllocFree: the streaming admit path must not allocate
// once warm, on both the inline and the queued path (see
// checkAdmitAllocFree). The gate pins the saturated cost-reject steady state
// with warm-start reuse disabled, so dpPacket's FULL DP query runs on every
// admit (the warm-start skip has its own gate below), and chainPacket's
// chain walk runs on every admit under either setting; the accept path
// additionally retains the route into chunked arenas, which is amortized
// O(1) per accept but not 0.
func TestEngineAdmitWarmAllocFree(t *testing.T) {
	skipIfRace(t)
	checkAdmitAllocFree(t, engine.Options{NoWarmStart: true})
}

// TestEngineAdmitWarmStartAllocFree: the same gate for the default engine
// configuration — repeated queries against an unchanged packer take the
// version-delta-0 warm-start path (no DP at all) and must stay 0-alloc on
// both paths.
func TestEngineAdmitWarmStartAllocFree(t *testing.T) {
	skipIfRace(t)
	checkAdmitAllocFree(t, engine.Options{})
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
		// A live Admit right after must find a pooled envelope again.
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

// TestSTPackerLightestPathWarmAllocFree: the Theorem 13 / dual-bound oracle's
// path search (DP + destination-ray scan) allocates only the returned path
// once warm (1 Path struct + 1 coord slice + 1 axes slice, plus the source
// point — materialized per call by design).
func TestSTPackerLightestPathWarmAllocFree(t *testing.T) {
	skipIfRace(t)
	g := grid.Line(32, 3, 3)
	st := spacetime.New(g, 64)
	sp := optbound.NewSTPacker(st, 3, 3, core.PMaxDet(g))
	r := &grid.Request{Src: grid.Vec{2}, Dst: grid.Vec{20}, Arrival: 1, Deadline: grid.InfDeadline}
	if p, _ := sp.LightestPath(r); p == nil {
		t.Fatal("no path on an empty lattice")
	}
	allocs := testing.AllocsPerRun(20, func() {
		sp.LightestPath(r)
	})
	if allocs > 4 {
		t.Fatalf("warm LightestPath allocates %v/run, want ≤ 4 (the returned path)", allocs)
	}
}
