package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"gridroute/internal/grid"
	"gridroute/internal/netsim"
	"gridroute/internal/scenario"
)

func TestRandParamsRegimes(t *testing.T) {
	// n = 256 → log n = 8.
	cases := []struct {
		b, c   int
		regime Regime
	}{
		{1, 1, RegimeSmall},
		{8, 8, RegimeSmall},
		{3, 5, RegimeSmall},
		{256, 2, RegimeLargeBuffers},
		{1024, 8, RegimeLargeBuffers},
		{1, 64, RegimeLargeCapacity},
		{8, 1024, RegimeLargeCapacity},
	}
	for _, cse := range cases {
		g := grid.Line(256, cse.b, cse.c)
		reg, tau, q, err := randParams(g)
		if err != nil {
			t.Fatalf("B=%d c=%d: %v", cse.b, cse.c, err)
		}
		if reg != cse.regime {
			t.Errorf("B=%d c=%d: regime %v, want %v", cse.b, cse.c, reg, cse.regime)
		}
		if tau < 1 || q < 1 {
			t.Errorf("B=%d c=%d: bad sides τ=%d Q=%d", cse.b, cse.c, tau, q)
		}
	}
	// Both large → error pointing at Thm 13.
	g := grid.Line(256, 64, 64)
	if _, _, _, err := randParams(g); err == nil {
		t.Fatal("B,c ≥ log n should be routed to Theorem 13")
	}
}

// Prop. 16 (1): τ + Q = O(log n) in the small regime.
func TestProp16TileSides(t *testing.T) {
	for _, n := range []int{64, 256, 1024, 4096} {
		for _, bc := range [][2]int{{1, 1}, {2, 3}, {1, 8}, {5, 5}} {
			g := grid.Line(n, bc[0], bc[1])
			reg, tau, q, err := randParams(g)
			if err != nil || reg != RegimeSmall {
				continue
			}
			l := 1
			for 1<<l < n {
				l++
			}
			if tau+q > 8*l+8 {
				t.Errorf("n=%d B=%d c=%d: τ+Q = %d too large vs log n = %d", n, bc[0], bc[1], tau+q, l)
			}
			// Prop 16 (2): sketch capacities ≥ log n (up to the even rounding).
			if tau*bc[1] < l && q*bc[0] < l {
				t.Errorf("n=%d B=%d c=%d: both sketch caps below log n", n, bc[0], bc[1])
			}
		}
	}
}

func runRand(t *testing.T, g *grid.Grid, reqs []grid.Request, cfg RandConfig, seed int64) *RandResult {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	res, err := RunRandomized(g, reqs, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Anomalies != 0 {
		t.Fatalf("anomalies: %d (injection is non-preemptive; must be 0)", res.Anomalies)
	}
	// Non-preemptive: injected ⇒ delivered.
	if res.Injected != res.Throughput {
		t.Fatalf("injected %d != delivered %d (non-preemption violated)", res.Injected, res.Throughput)
	}
	rep := netsim.ReplaySchedules(g, reqs, res.Schedules, netsim.Model1)
	if len(rep.Violation) != 0 {
		t.Fatalf("replay violations: %v", rep.Violation[0])
	}
	if rep.Throughput() != res.Throughput {
		t.Fatalf("replay throughput %d != %d", rep.Throughput(), res.Throughput)
	}
	return res
}

func TestRandomizedFarBranchB1C1(t *testing.T) {
	g := grid.Line(64, 1, 1)
	rng := rand.New(rand.NewSource(7))
	reqs := scenario.Uniform(g, 600, 128, rng)
	res := runRand(t, g, reqs, RandConfig{Gamma: 0.5, Branch: 1}, 1)
	if res.Regime != RegimeSmall {
		t.Fatalf("regime %v", res.Regime)
	}
	if res.IPPAccepted == 0 {
		t.Fatal("ipp accepted nothing")
	}
	if res.Throughput == 0 {
		t.Fatal("no Far+ throughput (engineering γ should let packets through)")
	}
	// Pipeline chain must be monotone.
	if !(res.Throughput <= res.LoadSurvived && res.LoadSurvived <= res.CoinSurvived && res.CoinSurvived <= res.IPPAccepted) {
		t.Fatalf("pipeline chain broken: %d ≤ %d ≤ %d ≤ %d", res.Throughput, res.LoadSurvived, res.CoinSurvived, res.IPPAccepted)
	}
}

func TestRandomizedNearBranch(t *testing.T) {
	g := grid.Line(64, 2, 2)
	rng := rand.New(rand.NewSource(8))
	reqs := scenario.Uniform(g, 400, 128, rng)
	res := runRand(t, g, reqs, RandConfig{Branch: 2}, 2)
	if res.NearTotal == 0 {
		t.Skip("no near requests drawn (possible with unlucky shifts)")
	}
	if res.Throughput == 0 {
		t.Fatal("near branch should deliver something")
	}
	// Near deliveries take the direct route: delivery time = arrival + dist.
	for i, o := range res.Outcomes {
		if o.Delivered {
			want := reqs[i].Arrival + int64(g.Dist(reqs[i].Src, reqs[i].Dst))
			if o.DeliveredAt != want {
				t.Fatalf("near req %d delivered at %d, want %d", i, o.DeliveredAt, want)
			}
		}
	}
}

func TestRandomizedFairCoin(t *testing.T) {
	g := grid.Line(64, 1, 1)
	rng := rand.New(rand.NewSource(9))
	reqs := scenario.Uniform(g, 300, 64, rng)
	far, near := 0, 0
	for seed := int64(0); seed < 20; seed++ {
		res := runRand(t, g, reqs, RandConfig{Gamma: 0.5}, seed)
		if res.FarBranch {
			far++
		} else {
			near++
		}
	}
	if far == 0 || near == 0 {
		t.Fatalf("coin never flips: far=%d near=%d", far, near)
	}
}

func TestRandomizedLargeBuffers(t *testing.T) {
	// n=64 → log n = 6; B = 64, c = 1 → B/c = 64 ≥ log n.
	g := grid.Line(64, 64, 1)
	rng := rand.New(rand.NewSource(10))
	reqs := scenario.Uniform(g, 400, 128, rng)
	res := runRand(t, g, reqs, RandConfig{Gamma: 0.5, Branch: 1}, 3)
	if res.Regime != RegimeLargeBuffers {
		t.Fatalf("regime %v, want large-buffers", res.Regime)
	}
	if res.Throughput == 0 {
		t.Fatal("no throughput in the large-buffer regime")
	}
}

func TestRandomizedLargeCapacity(t *testing.T) {
	// n=64 → log n = 6; B = 2, c = 64.
	g := grid.Line(64, 2, 64)
	rng := rand.New(rand.NewSource(11))
	reqs := scenario.Saturating(g, 8, 4, rng)
	res := runRand(t, g, reqs, RandConfig{Gamma: 0.5, Branch: 1}, 4)
	if res.Regime != RegimeLargeCapacity {
		t.Fatalf("regime %v, want large-capacity", res.Regime)
	}
	if res.Throughput == 0 {
		t.Fatal("no throughput in the large-capacity regime")
	}
}

func TestRandomizedRejectsDeadlines(t *testing.T) {
	g := grid.Line(32, 1, 1)
	reqs := []grid.Request{{Src: grid.Vec{0}, Dst: grid.Vec{5}, Arrival: 0, Deadline: 10}}
	if _, err := RunRandomized(g, reqs, RandConfig{}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("deadlines are out of scope for the randomized algorithm")
	}
}

// Every regime a bufferless line reaches divides by B, so B = 0 is an
// error that names the bufferless variant, not a divide-by-zero panic.
func TestRandomizedRejectsBufferless(t *testing.T) {
	g := grid.Line(32, 0, 3)
	reqs := []grid.Request{{Src: grid.Vec{0}, Dst: grid.Vec{5}, Arrival: 0, Deadline: grid.InfDeadline}}
	_, err := RunRandomized(g, reqs, RandConfig{}, rand.New(rand.NewSource(1)))
	if err == nil || !strings.Contains(err.Error(), "Thm 11") {
		t.Fatalf("B = 0: err = %v, want an error naming the bufferless variant (Thm 11)", err)
	}
}

// A negative or NaN γ makes λ = 1/(γk) meaningless, and a negative load cap
// or an unknown branch has no reading in Sec. 7: each is an error, not a run
// that silently delivers nothing.
func TestRandomizedRejectsBadConfig(t *testing.T) {
	g := grid.Line(32, 1, 1)
	reqs := []grid.Request{{Src: grid.Vec{0}, Dst: grid.Vec{5}, Arrival: 0, Deadline: grid.InfDeadline}}
	for _, cfg := range []RandConfig{
		{Gamma: -1},
		{Gamma: math.NaN()},
		{LoadCap: -0.25},
		{LoadCap: math.NaN()},
		{Branch: -1},
		{Branch: 3},
	} {
		if _, err := RunRandomized(g, reqs, cfg, rand.New(rand.NewSource(1))); err == nil || !strings.Contains(err.Error(), "RandConfig") {
			t.Errorf("%+v: err = %v, want an error naming RandConfig", cfg, err)
		}
	}
}

func TestRandomizedRejects2D(t *testing.T) {
	g := grid.New([]int{4, 4}, 1, 1)
	if _, err := RunRandomized(g, nil, RandConfig{}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("d=2 must be rejected")
	}
}

// Faithful-γ smoke test: with γ=200 almost everything is sparsified away,
// but the run must stay sound (chain monotone, replay clean).
func TestRandomizedFaithfulGamma(t *testing.T) {
	g := grid.Line(64, 1, 1)
	rng := rand.New(rand.NewSource(12))
	reqs := scenario.Uniform(g, 500, 64, rng)
	res := runRand(t, g, reqs, RandConfig{Branch: 1}, 5)
	if res.Lambda <= 0 || res.Lambda > 0.01 {
		t.Fatalf("faithful λ = %v out of range", res.Lambda)
	}
	if res.CoinSurvived > res.IPPAccepted {
		t.Fatal("chain broken")
	}
}

// Prop. 17 ingredient: over many random shifts, the Far⁺ fraction of far
// requests is near the expected 1/4 in the small regime.
func TestFarPlusFractionNearQuarter(t *testing.T) {
	g := grid.Line(128, 2, 2)
	rng := rand.New(rand.NewSource(13))
	reqs := scenario.Uniform(g, 500, 256, rng)
	totFar, totFarPlus := 0, 0
	for seed := int64(0); seed < 30; seed++ {
		res := runRand(t, g, reqs, RandConfig{Gamma: 0.5, Branch: 1}, seed)
		totFar += res.FarTotal
		totFarPlus += res.FarPlusTotal
	}
	frac := float64(totFarPlus) / float64(totFar)
	if frac < 0.15 || frac > 0.35 {
		t.Fatalf("Far+ fraction = %.3f, expected ≈ 0.25", frac)
	}
}
