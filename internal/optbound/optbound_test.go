package optbound

import (
	"math"
	"math/rand"
	"testing"

	"gridroute/internal/baseline"
	"gridroute/internal/grid"
	"gridroute/internal/ipp"
	"gridroute/internal/lattice"
	"gridroute/internal/netsim"
	"gridroute/internal/scenario"
	"gridroute/internal/sketch"
	"gridroute/internal/spacetime"
)

func TestDualUpperBoundDominatesFeasible(t *testing.T) {
	g := grid.Line(24, 2, 2)
	rng := rand.New(rand.NewSource(1))
	reqs := scenario.Uniform(g, 80, 48, rng)
	T := spacetime.SuggestHorizon(g, reqs, 3)
	upper, accepted := DualUpperBound(g, reqs, T)
	// Theorem 1: the primal is at most twice the dual, the accepted count.
	// Nothing bounds accepted by upper: the packer may overload edges.
	if upper > 2*float64(accepted) {
		t.Fatalf("dual upper %v > 2·accepted %d (Theorem 1)", upper, accepted)
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

// spaceTimeOracle is DualUpperBound's query on its own: a SpaceTime session
// and packer, offered each request's destination ray (clipped to the
// source's w on a bufferless grid) with paths of at most pmax edges.
type spaceTimeOracle struct {
	st    *spacetime.Graph
	pk    *ipp.Packer
	sess  *sketch.Session
	route sketch.Route
	pmax  int
}

func newSpaceTimeOracle(g *grid.Grid, T int64, pmax int) *spaceTimeOracle {
	st := spacetime.New(g, T)
	sk := sketch.SpaceTime(st)
	return &spaceTimeOracle{st: st, pk: ipp.NewDense(pmax, sk.Cap, sk.Universe()), sess: sk.NewSession(), pmax: pmax}
}

func (o *spaceTimeOracle) offer(r *grid.Request) bool {
	src := o.st.SourcePoint(r)
	wLo, wHi := o.st.DestRay(r)
	if o.st.G.B == 0 {
		wHi = src[o.st.D()]
	}
	return o.sess.Offer(o.pk, src, r.Dst, wLo, wHi, o.pmax+1, &o.route)
}

// TestSTPackerBufferlessBlocksHolds: on a bufferless line the certificate's
// query never routes through a buffer, even after repeated offers load the
// straight path past its capacity. (The name is the space-time packer's,
// whose queries the sketch session took over.)
func TestSTPackerBufferlessBlocksHolds(t *testing.T) {
	o := newSpaceTimeOracle(grid.Line(16, 0, 2), 40, 64)
	r := &grid.Request{Src: grid.Vec{2}, Dst: grid.Vec{9}, Arrival: 1, Deadline: grid.InfDeadline}
	accepted := 0
	for i := 0; i < 8; i++ {
		if !o.offer(r) {
			continue
		}
		accepted++
		for _, a := range o.route.Axes {
			if int(a) == 1 {
				t.Fatalf("offer %d: bufferless path contains a w (hold) step: %v", i, o.route.Axes)
			}
		}
	}
	if accepted == 0 {
		t.Fatal("bufferless straight path should be accepted")
	}
	if o.pk.Rejected() == 0 {
		t.Fatal("the straight path never saturated; the test exercised no rejection")
	}
}

// TestSTPackerRespectsDeadline: a route the certificate's query accepts
// delivers by the request's deadline.
func TestSTPackerRespectsDeadline(t *testing.T) {
	o := newSpaceTimeOracle(grid.Line(16, 4, 4), 60, 64)
	r := &grid.Request{Src: grid.Vec{0}, Dst: grid.Vec{10}, Arrival: 0, Deadline: 12}
	if !o.offer(r) {
		t.Fatal("feasible deadline should be routable")
	}
	s := o.st.PathToSchedule(r, &lattice.Path{Start: o.st.SourcePoint(r), Axes: o.route.Axes})
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

// TestDualUpperBoundGolden pins the certificate bit for bit on seven
// overloaded instances, one per shape of the space-time query: a line, a
// 2-D and a 3-D grid, a bufferless line, deadlines, bursts and unit
// capacities. The horizon is tight (slack 1), so most of them reject
// requests and both the bounded DP and the chain walk run.
// upper is compared as math.Float64bits: a change to the order of the sums,
// the pruning bound or the paths the dual covers fails here before it
// moves an `upper` column of the experiment report.
func TestDualUpperBoundGolden(t *testing.T) {
	cases := []struct {
		name      string
		scenario  string
		params    map[string]float64
		upperBits uint64
		accepted  int
	}{
		{"line64-uniform", "uniform", map[string]float64{"n": 64, "b": 3, "c": 3, "reqs": 3000, "maxt": 2}, 0x40a1433d5429e9d1, 2146},
		{"grid6x6-uniform", "uniform", map[string]float64{"d": 2, "n": 6, "reqs": 1500, "maxt": 2}, 0x409786e5dae14ce3, 1440},
		{"lattice3d-uniform", "lattice3d-uniform", map[string]float64{"b": 1, "c": 1, "reqs": 1500, "maxt": 1}, 0x409a1f737373740f, 1500},
		{"line64-bufferless", "uniform", map[string]float64{"n": 64, "b": 0, "c": 3, "reqs": 1500, "maxt": 8}, 0x4092a98f39cc5fe8, 1196},
		{"uniform-deadline", "uniform-deadline", map[string]float64{"reqs": 2000, "maxt": 2}, 0x4097ee21fb3e4a26, 1503},
		{"saturating", "saturating", map[string]float64{"n": 32, "rounds": 8, "burst": 4}, 0x408d4fd5ca402c66, 879},
		{"line64-b1c1", "uniform", map[string]float64{"n": 64, "b": 1, "c": 1, "reqs": 1500, "maxt": 4}, 0x408e08d9364d930b, 859},
	}
	for _, tc := range cases {
		g, reqs, err := scenario.Generate(tc.scenario, tc.params)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		upper, accepted := DualUpperBound(g, reqs, spacetime.SuggestHorizon(g, reqs, 1))
		if math.Float64bits(upper) != tc.upperBits || accepted != tc.accepted {
			t.Errorf("%s: upper %v (bits %#x), accepted %d; want bits %#x, accepted %d",
				tc.name, upper, math.Float64bits(upper), accepted, tc.upperBits, tc.accepted)
		}
	}
}
