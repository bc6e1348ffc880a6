package optbound

import (
	"math/rand"
	"testing"

	"gridroute/internal/baseline"
	"gridroute/internal/grid"
	"gridroute/internal/netsim"
	"gridroute/internal/scenario"
	"gridroute/internal/spacetime"
)

func TestDualUpperBoundDominatesFeasible(t *testing.T) {
	g := grid.Line(24, 2, 2)
	rng := rand.New(rand.NewSource(1))
	reqs := scenario.Uniform(g, 80, 48, rng)
	T := spacetime.SuggestHorizon(g, reqs, 3)
	upper, accepted := DualUpperBound(g, reqs, T)
	if upper < float64(accepted) {
		t.Fatalf("dual upper %v < packer's own throughput %d", upper, accepted)
	}
	// Any feasible schedule (here: greedy) must stay below the bound.
	res := netsim.RunLocal(g, reqs, baseline.Greedy{}, netsim.Model1, T)
	if float64(res.Throughput()) > upper+1e-9 {
		t.Fatalf("greedy throughput %d exceeds certified upper bound %v", res.Throughput(), upper)
	}
}

func TestDualUpperTightOnSingleton(t *testing.T) {
	g := grid.Line(8, 2, 1)
	reqs := []grid.Request{{Src: grid.Vec{0}, Dst: grid.Vec{7}, Arrival: 0, Deadline: grid.InfDeadline}}
	upper, accepted := DualUpperBound(g, reqs, 32)
	if accepted != 1 {
		t.Fatalf("accepted %d, want 1", accepted)
	}
	if upper < 1 || upper > 2.5 {
		t.Fatalf("upper %v out of the (1, 2·dual] window", upper)
	}
}

func TestSTPackerBufferlessBlocksHolds(t *testing.T) {
	g := grid.Line(16, 0, 2)
	st := spacetime.New(g, 40)
	sp := NewSTPacker(st, 0, 2, 64)
	r := &grid.Request{Src: grid.Vec{2}, Dst: grid.Vec{9}, Arrival: 1, Deadline: grid.InfDeadline}
	p, ok := sp.Offer(r)
	if !ok {
		t.Fatal("bufferless straight path should be accepted")
	}
	for _, a := range p.Axes {
		if int(a) == 1 {
			t.Fatal("bufferless path contains a w (hold) step")
		}
	}
}

func TestSTPackerRespectsDeadline(t *testing.T) {
	g := grid.Line(16, 4, 4)
	st := spacetime.New(g, 60)
	sp := NewSTPacker(st, 4, 4, 64)
	r := &grid.Request{Src: grid.Vec{0}, Dst: grid.Vec{10}, Arrival: 0, Deadline: 12}
	p, ok := sp.Offer(r)
	if !ok {
		t.Fatal("feasible deadline should be routable")
	}
	s := st.PathToSchedule(r, p)
	if !s.Delivers() {
		t.Fatal("packed path misses its deadline")
	}
}

func TestExactBufferlessLineKnown(t *testing.T) {
	g := grid.Line(8, 0, 1)
	// Two overlapping intervals in the same column + one in another column.
	reqs := []grid.Request{
		{Src: grid.Vec{0}, Dst: grid.Vec{4}, Arrival: 0, Deadline: grid.InfDeadline}, // col 0
		{Src: grid.Vec{2}, Dst: grid.Vec{6}, Arrival: 2, Deadline: grid.InfDeadline}, // col 0, overlaps
		{Src: grid.Vec{1}, Dst: grid.Vec{3}, Arrival: 4, Deadline: grid.InfDeadline}, // col 3
	}
	if opt := ExactBufferlessLine(g, reqs); opt != 2 {
		t.Fatalf("opt = %d, want 2", opt)
	}
	// With c = 2 both column-0 intervals fit.
	g2 := grid.Line(8, 0, 2)
	if opt := ExactBufferlessLine(g2, reqs); opt != 3 {
		t.Fatalf("opt(c=2) = %d, want 3", opt)
	}
}

// Prop. 12: nearest-to-go is optimal on bufferless lines. Cross-check NTG
// against the exact OPT on random instances.
func TestProp12NTGOptimalBufferless(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := grid.Line(12, 0, 1)
		rng := rand.New(rand.NewSource(seed))
		reqs := scenario.Uniform(g, 10, 12, rng)
		opt := ExactBufferlessLine(g, reqs)
		res := netsim.RunLocal(g, reqs, baseline.NearestToGo{}, netsim.Model1, 64)
		if res.Throughput() > opt {
			t.Fatalf("seed %d: NTG %d > exact OPT %d (bound broken)", seed, res.Throughput(), opt)
		}
		if res.Throughput() < opt {
			// NTG should match OPT on B=0 lines (Prop. 12).
			t.Fatalf("seed %d: NTG %d < OPT %d (Prop 12 violated)", seed, res.Throughput(), opt)
		}
	}
}

func TestExactTinyMatchesBufferless(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := grid.Line(8, 0, 1)
		rng := rand.New(rand.NewSource(100 + seed))
		reqs := scenario.Uniform(g, 6, 8, rng)
		want := ExactBufferlessLine(g, reqs)
		got, ok := ExactTiny(g, reqs, 32, 64, 8)
		if !ok {
			t.Fatalf("seed %d: enumeration overflow", seed)
		}
		if got != want {
			t.Fatalf("seed %d: ExactTiny %d != column OPT %d", seed, got, want)
		}
	}
}

func TestExactTinyWithBuffers(t *testing.T) {
	g := grid.Line(5, 1, 1)
	// Two packets over the same edge at the same step: buffering saves one.
	reqs := []grid.Request{
		{Src: grid.Vec{0}, Dst: grid.Vec{2}, Arrival: 0, Deadline: grid.InfDeadline},
		{Src: grid.Vec{0}, Dst: grid.Vec{2}, Arrival: 0, Deadline: grid.InfDeadline},
	}
	opt, ok := ExactTiny(g, reqs, 6, 128, 4)
	if !ok || opt != 2 {
		t.Fatalf("opt = %d ok=%v, want 2 (one buffers a step)", opt, ok)
	}
	// With B = 0 only one survives.
	g0 := grid.Line(5, 0, 1)
	opt0, ok := ExactTiny(g0, reqs, 6, 128, 4)
	if !ok || opt0 != 1 {
		t.Fatalf("bufferless opt = %d, want 1", opt0)
	}
}

func TestExactTinyLimits(t *testing.T) {
	g := grid.Line(6, 1, 1)
	reqs := make([]grid.Request, 5)
	for i := range reqs {
		reqs[i] = grid.Request{Src: grid.Vec{0}, Dst: grid.Vec{5}, Arrival: int64(i), Deadline: grid.InfDeadline}
	}
	if _, ok := ExactTiny(g, reqs, 64, 2, 3); ok {
		t.Fatal("maxReqs=3 < 5 requests should refuse")
	}
}
