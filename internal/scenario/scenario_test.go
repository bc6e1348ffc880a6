package scenario

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gridroute/internal/grid"
)

// TestEveryScenarioGeneratesValidRequests is the catalog-wide property
// test: every registered scenario, at its defaults, must yield requests
// that are in bounds, reachable, arrival-sorted and ID-stable (0..len-1).
// Generate enforces this contract itself, so a nil error plus a non-empty
// stream is the whole assertion.
func TestEveryScenarioGeneratesValidRequests(t *testing.T) {
	scs := Registered()
	if len(scs) < 14 {
		t.Fatalf("registry has %d scenarios, want ≥ 14", len(scs))
	}
	for _, sc := range scs {
		t.Run(sc.ID, func(t *testing.T) {
			g, reqs, err := Generate(sc.ID, nil)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			if len(reqs) == 0 {
				t.Fatal("no requests generated at defaults")
			}
			if i := grid.ValidateAll(g, reqs); i >= 0 {
				t.Fatalf("invalid request at %d: %v", i, &reqs[i])
			}
			for i := range reqs {
				if reqs[i].ID != i {
					t.Fatalf("request %d has ID %d", i, reqs[i].ID)
				}
				if gd := g.Dist(reqs[i].Src, reqs[i].Dst); gd <= 0 {
					t.Fatalf("request %d not strictly forward-reachable: %v", i, &reqs[i])
				}
			}
		})
	}
}

// goldenDigests pins every registered scenario's output at its defaults
// and seed 7. Comparing a run only with itself would pass a generator
// change that reorders, drops or alters requests; a digest here fails it.
// Update a digest only with a deliberate change to that scenario's output.
var goldenDigests = map[string]uint64{
	"appendixf-model2":    0x703cd1631b3460bc,
	"bit-reversal":        0xbde22918b873bbe5,
	"convoy":              0x25b30f0bdf9ecfd3,
	"convoy-rate":         0x11ff2902cc0badd1,
	"crossbar":            0x8afa5ba3f5674e5c,
	"heavy-pareto":        0xb7daa1adfe37b2a4,
	"hotspot":             0xf24d8bce6d0fc4fd,
	"lattice3d-hotspot":   0x62ce79a01bf65d7e,
	"lattice3d-uniform":   0xb01175f13f16c4f7,
	"markov-onoff":        0xd6718a02d12a9e84,
	"permutation":         0x3fa8d0f7a6d564a0,
	"saturating":          0x5a30908fb27fd99f,
	"saturating-deadline": 0x5e419286ec2f8efa,
	"transpose":           0x3093b013550506c5,
	"uniform":             0x6a3729f6a154dfbc,
	"uniform-deadline":    0xba494812b35a1321,
	"zipf-hotspot":        0x96455dc7a4c8ee38,
}

// TestGenerateByteDeterministic regenerates every scenario twice serially
// and once under heavy goroutine interleaving (the -j analogue), asserting
// byte-identical output each time for a fixed seed, and that output's
// digest against goldenDigests.
func TestGenerateByteDeterministic(t *testing.T) {
	if n := len(Registered()); n != len(goldenDigests) {
		t.Errorf("registry has %d scenarios, goldenDigests %d", n, len(goldenDigests))
	}
	for _, sc := range Registered() {
		t.Run(sc.ID, func(t *testing.T) {
			g1, r1, err := Generate(sc.ID, map[string]float64{"seed": 7})
			if err != nil {
				t.Fatal(err)
			}
			g2, r2, err := Generate(sc.ID, map[string]float64{"seed": 7})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Fatal("serial regeneration differs")
			}
			d1 := Digest(g1, r1)
			if d2 := Digest(g2, r2); d1 != d2 {
				t.Fatalf("digest mismatch: %x vs %x", d1, d2)
			}
			if want, ok := goldenDigests[sc.ID]; !ok || d1 != want {
				t.Errorf("digest %#016x, golden %#016x (present %v)", d1, want, ok)
			}
			const workers = 8
			digests := make([]uint64, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					g, r, err := Generate(sc.ID, map[string]float64{"seed": 7})
					if err == nil {
						digests[w] = Digest(g, r)
					}
				}(w)
			}
			wg.Wait()
			for w := 0; w < workers; w++ {
				if digests[w] != d1 {
					t.Fatalf("worker %d digest %x differs from serial %x", w, digests[w], d1)
				}
			}
		})
	}
}

func TestSeedsDecorrelated(t *testing.T) {
	_, r1, err := Generate("uniform", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, r2, err := Generate("uniform", map[string]float64{"seed": 1})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(r1, r2) {
		t.Fatal("seed override did not change the stream")
	}
	// Distinct scenarios with equal seeds draw from distinct streams.
	if SeedFor("uniform") == SeedFor("hotspot") {
		t.Fatal("per-ID seeds collide")
	}
	if SeedFor("uniform") == SeedFor("uniform", "seed=1") {
		t.Fatal("seed subkey ignored")
	}
}

func TestResolveValidation(t *testing.T) {
	if _, err := Resolve("no-such-scenario", nil); err == nil || !strings.Contains(err.Error(), "known:") {
		t.Fatalf("unknown scenario must list known IDs, got %v", err)
	}
	if _, err := Resolve("uniform", map[string]float64{"bogus": 1}); err == nil || !strings.Contains(err.Error(), "known:") {
		t.Fatalf("unknown parameter must list known names, got %v", err)
	}
	if _, err := Resolve("uniform", map[string]float64{"n": 1}); err == nil {
		t.Fatal("out-of-range n must fail")
	}
	if _, err := Resolve("uniform", map[string]float64{"n": 10.5}); err == nil {
		t.Fatal("non-integral n must fail")
	}
	spec, err := Resolve("uniform", map[string]float64{"n": 16, "reqs": 10})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Int("n") != 16 || spec.Int("reqs") != 10 || spec.Int("b") != 3 {
		t.Fatalf("override/defaults wrong: n=%d reqs=%d b=%d", spec.Int("n"), spec.Int("reqs"), spec.Int("b"))
	}
}

func TestBitReversalRequiresPowerOfTwo(t *testing.T) {
	if _, _, err := Generate("bit-reversal", map[string]float64{"n": 48}); err == nil {
		t.Fatal("n=48 must be rejected")
	}
	g, reqs, err := Generate("bit-reversal", map[string]float64{"n": 32, "waves": 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if bitRev(reqs[i].Src[0], 5) != reqs[i].Dst[0] {
			t.Fatalf("request %d is not a bit reversal: %v", i, &reqs[i])
		}
	}
	if g.N() != 32 {
		t.Fatalf("grid size %d", g.N())
	}
}

func TestTransposeShape(t *testing.T) {
	_, reqs, err := Generate("transpose", map[string]float64{"n": 8, "waves": 2, "every": 4})
	if err != nil {
		t.Fatal(err)
	}
	// Corner-turn: 2ℓ edge-to-edge requests per wave.
	if want := 2 * 2 * 8; len(reqs) != want {
		t.Fatalf("got %d requests, want %d", len(reqs), want)
	}
	for i := range reqs {
		r := &reqs[i]
		west := r.Src[1] == 0 && r.Dst[0] == 7 && r.Dst[1] == r.Src[0]
		north := r.Src[0] == 0 && r.Dst[1] == 7 && r.Dst[0] == r.Src[1]
		if !west && !north {
			t.Fatalf("request %d is not a corner-turn pair: %v", i, r)
		}
	}
}

func TestModel2CollisionChainShape(t *testing.T) {
	g, reqs := Model2CollisionChain(16, 1, 1, 2)
	if i := grid.ValidateAll(g, reqs); i >= 0 {
		t.Fatalf("invalid request at %d", i)
	}
	longs := 0
	for i := range reqs {
		if reqs[i].Dst[0]-reqs[i].Src[0] == 15 {
			longs++
		} else if reqs[i].Arrival != int64(reqs[i].Src[0]) && reqs[i].Arrival != int64(16+reqs[i].Src[0]) {
			t.Fatalf("short hop %v not synchronized with the long packet", &reqs[i])
		}
	}
	if longs != 2 {
		t.Fatalf("want 2 long packets, got %d", longs)
	}
	if Model2CollisionOPT(16, 2) != 2*14 {
		t.Fatalf("OPT = %d", Model2CollisionOPT(16, 2))
	}
}

func TestHeavyTailedShapes(t *testing.T) {
	_, reqs, err := Generate("heavy-pareto", map[string]float64{"reqs": 300})
	if err != nil {
		t.Fatal(err)
	}
	// A renewal process with heavy-tailed gaps must actually spread out.
	if last := reqs[len(reqs)-1].Arrival; last < 50 {
		t.Fatalf("arrival span %d suspiciously small for Pareto gaps", last)
	}
	// Regression: the renewal clock accumulates in float and floors only on
	// emission. The old per-gap truncation dropped every sub-unit gap to 0
	// (P ≈ 0.65 at alpha=1.5, scale=1), collapsing ~2/3 of consecutive
	// arrivals onto one epoch; with cumulative flooring the same-epoch
	// fraction stays well under half.
	sameEpoch := 0
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival == reqs[i-1].Arrival {
			sameEpoch++
		}
	}
	if 2*sameEpoch >= len(reqs)-1 {
		t.Fatalf("%d of %d consecutive arrivals share an epoch — sub-unit Pareto gaps are being truncated", sameEpoch, len(reqs)-1)
	}
	_, reqs, err = Generate("zipf-hotspot", map[string]float64{"reqs": 300})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for i := range reqs {
		counts[reqs[i].Src[0]]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Zipf(1.2): the most popular source should dominate a uniform share.
	if max < 2*len(reqs)/64 {
		t.Fatalf("top source only %d/%d requests — not Zipf-skewed", max, len(reqs))
	}
}

// --- ported generator unit tests (formerly internal/workload) ---

func TestUniformValid(t *testing.T) {
	g := grid.New([]int{8, 8}, 2, 2)
	rng := rand.New(rand.NewSource(1))
	reqs := Uniform(g, 100, 50, rng)
	if len(reqs) != 100 {
		t.Fatalf("got %d requests", len(reqs))
	}
	if i := grid.ValidateAll(g, reqs); i >= 0 {
		t.Fatalf("invalid request at %d: %v", i, reqs[i])
	}
	for i := range reqs {
		if reqs[i].Src.Eq(reqs[i].Dst) {
			t.Fatal("src == dst should be filtered")
		}
		if reqs[i].ID != i {
			t.Fatal("IDs must follow arrival order")
		}
	}
}

func TestSaturatingDemandExceedsCapacity(t *testing.T) {
	g := grid.Line(16, 2, 1)
	rng := rand.New(rand.NewSource(2))
	reqs := Saturating(g, 4, 3, rng)
	// Roughly rounds·n·burst requests (minus src==dst skips at the corner).
	if len(reqs) < 4*16*3/2 {
		t.Fatalf("too few requests: %d", len(reqs))
	}
	if i := grid.ValidateAll(g, reqs); i >= 0 {
		t.Fatalf("invalid request at %d", i)
	}
}

func TestHotspotSourcesConcentrated(t *testing.T) {
	g := grid.Line(64, 1, 1)
	rng := rand.New(rand.NewSource(3))
	reqs := Hotspot(g, 200, 50, 0.25, rng)
	for i := range reqs {
		if reqs[i].Src[0] >= 16 {
			t.Fatalf("hotspot source %v outside the corner region", reqs[i].Src)
		}
	}
	if i := grid.ValidateAll(g, reqs); i >= 0 {
		t.Fatalf("invalid request at %d", i)
	}
}

func TestWithDeadlinesFeasible(t *testing.T) {
	g := grid.Line(32, 2, 2)
	rng := rand.New(rand.NewSource(4))
	base := Uniform(g, 100, 64, rng)
	reqs := WithDeadlines(g, base, 1.5, 8, rng)
	for i := range reqs {
		if !reqs[i].Feasible(g) {
			t.Fatalf("infeasible deadline for %v", reqs[i])
		}
		if !reqs[i].HasDeadline() {
			t.Fatal("deadline missing")
		}
	}
	// Slack 1.0, jitter 0 → exactly tight deadlines.
	tight := WithDeadlines(g, base, 1.0, 0, rng)
	for i := range tight {
		d := int64(g.Dist(tight[i].Src, tight[i].Dst))
		if tight[i].Deadline != tight[i].Arrival+d {
			t.Fatalf("tight deadline wrong: %v", tight[i])
		}
	}
}

func TestConvoyShape(t *testing.T) {
	reqs := Convoy(16, 8, 2)
	g := grid.Line(16, 2, 1)
	if i := grid.ValidateAll(g, reqs); i >= 0 {
		t.Fatalf("invalid request at %d", i)
	}
	longs, shorts := 0, 0
	for i := range reqs {
		if reqs[i].Dst[0]-reqs[i].Src[0] == 15 {
			longs++
		} else if reqs[i].Dst[0]-reqs[i].Src[0] == 1 {
			shorts++
		}
	}
	if longs != 8 {
		t.Fatalf("longs = %d, want 8", longs)
	}
	if shorts != 4*14 {
		t.Fatalf("shorts = %d, want %d", shorts, 4*14)
	}
	if ConvoyOPTLowerBound(16, 8, 2) != 4*14 {
		t.Fatalf("OPT lower bound = %d", ConvoyOPTLowerBound(16, 8, 2))
	}
}

func TestCrossbar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, reqs := Crossbar(8, 3, 3, 10, 0.8, rng)
	if g.D() != 2 {
		t.Fatal("crossbar must be 2-d")
	}
	if len(reqs) == 0 {
		t.Fatal("no crossbar traffic")
	}
	if i := grid.ValidateAll(g, reqs); i >= 0 {
		t.Fatalf("invalid request at %d: %v", i, reqs[i])
	}
	for i := range reqs {
		if reqs[i].Src[1] != 0 {
			t.Fatal("crossbar ingress must be on column 0")
		}
	}
}

func TestPermutation(t *testing.T) {
	g := grid.New([]int{6, 6}, 1, 1)
	rng := rand.New(rand.NewSource(6))
	reqs := Permutation(g, 10, rng)
	if len(reqs) == 0 || len(reqs) > g.N() {
		t.Fatalf("bad request count %d", len(reqs))
	}
	if i := grid.ValidateAll(g, reqs); i >= 0 {
		t.Fatalf("invalid request at %d", i)
	}
}

func TestResolveRejectsNaN(t *testing.T) {
	if _, err := Resolve("heavy-pareto", map[string]float64{"alpha": math.NaN()}); err == nil {
		t.Fatal("NaN parameter must be rejected")
	}
}
