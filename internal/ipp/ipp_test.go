package ipp

import (
	"math"
	"math/rand"
	"testing"

	"gridroute/internal/lattice"
)

func constCap(c float64) CapFunc { return func(EdgeID) float64 { return c } }

func TestSingleEdgeSaturates(t *testing.T) {
	p := NewDense(1, constCap(1), 1)
	if !p.Offer([]EdgeID{0}, p.Cost([]EdgeID{0})) {
		t.Fatal("first request should be accepted")
	}
	// After one acceptance on a unit-capacity edge with pmax=1:
	// x = 0·2 + (2−1)/1 = 1 → next request must be rejected.
	if w := p.Weight(0); w != 1 {
		t.Fatalf("weight = %v, want 1", w)
	}
	if p.Offer([]EdgeID{0}, p.Cost([]EdgeID{0})) {
		t.Fatal("second request must be rejected")
	}
	if p.Accepted() != 1 || p.Rejected() != 1 {
		t.Fatalf("counts: %d/%d", p.Accepted(), p.Rejected())
	}
	if p.MaxLoad() > p.LoadBound() {
		t.Fatalf("load %v exceeds bound %v", p.MaxLoad(), p.LoadBound())
	}
	// Primal ≤ 2·dual (Thm 1 proof invariant ΔP ≤ 2ΔD).
	if p.PrimalValue() > 2*float64(p.Accepted())+1e-9 {
		t.Fatalf("primal %v > 2·accepted %d", p.PrimalValue(), p.Accepted())
	}
}

func TestInfiniteCapacityEdgesStayFree(t *testing.T) {
	inf := math.Inf(1)
	p := NewDense(4, func(e EdgeID) float64 {
		if e == 99 {
			return inf
		}
		return 2
	}, 100)
	path := []EdgeID{1, 99}
	for i := 0; i < 3; i++ {
		p.Offer(path, p.Cost(path))
	}
	if p.Weight(99) != 0 {
		t.Fatalf("infinite-capacity edge gained weight %v", p.Weight(99))
	}
	if p.Flow(99) != 3 {
		t.Fatalf("flow on sink edge = %d", p.Flow(99))
	}
	if math.IsNaN(p.PrimalValue()) || math.IsInf(p.PrimalValue(), 0) {
		t.Fatalf("primal corrupted: %v", p.PrimalValue())
	}
}

func TestNilPathRejects(t *testing.T) {
	p := NewDense(2, constCap(1), 1)
	if p.Offer(nil, Inf()) {
		t.Fatal("nil path must reject")
	}
}

// Inf returns +Inf (helper to keep the call site tidy).
func Inf() float64 { return math.Inf(1) }

func TestK(t *testing.T) {
	// k = ⌈log2(1+3·pmax)⌉.
	if K(1) != 2 {
		t.Fatalf("K(1) = %d, want 2", K(1))
	}
	if K(5) != 4 {
		t.Fatalf("K(5) = %d, want 4", K(5))
	}
	if K(1000) < 11 || K(1000) > 12 {
		t.Fatalf("K(1000) = %d", K(1000))
	}
}

// TestTheorem1OnRandomLattices is the E8 experiment in miniature: run the
// packer with a real lightest-path oracle over random box lattices and check
// both Thm 1 guarantees: primal ≤ 2·dual and max load ≤ log2(1+3·pmax).
func TestTheorem1OnRandomLattices(t *testing.T) {
	runTheorem1Trial(t, rand.New(rand.NewSource(11)), 200)
	runTheorem1Trial(t, rand.New(rand.NewSource(12)), 400)
	runTheorem1Trial(t, rand.New(rand.NewSource(13)), 800)
}

func runTheorem1Trial(t *testing.T, rng *rand.Rand, numReq int) {
	t.Helper()
	nx := 4 + rng.Intn(5)
	ny := 4 + rng.Intn(5)
	box := lattice.NewBox([]int{0, 0}, []int{nx, ny})
	capArr := make([]float64, box.Size()*2)
	for i := range capArr {
		capArr[i] = float64(1 + rng.Intn(3))
	}
	capFn := func(e EdgeID) float64 { return capArr[e] }
	pmax := nx + ny // all source→dest paths fit
	p := NewDense(pmax, capFn, len(capArr))
	dp := box.NewDP()

	for i := 0; i < numReq; i++ {
		sx, sy := rng.Intn(nx), rng.Intn(ny)
		dx, dy := sx+rng.Intn(nx-sx), sy+rng.Intn(ny-sy)
		src := []int{sx, sy}
		dst := []int{dx, dy}
		dp.RunFlat(src, []int{dx + 1, dy + 1}, src, p.Weights(), nil)
		lp := dp.PathTo(dst)
		if lp == nil {
			t.Fatalf("no path in a full window")
		}
		edges := make([]EdgeID, 0, lp.Len())
		cur := append([]int(nil), lp.Start...)
		for _, a := range lp.Axes {
			edges = append(edges, EdgeID(box.Index(cur)*2+int(a)))
			cur[a]++
		}
		p.Offer(edges, p.Cost(edges))
	}
	if p.PrimalValue() > 2*float64(p.Accepted())+1e-9 {
		t.Fatalf("primal %v > 2·accepted %d", p.PrimalValue(), p.Accepted())
	}
	if p.MaxLoad() > p.LoadBound()+1e-9 {
		t.Fatalf("max load %v > bound %v", p.MaxLoad(), p.LoadBound())
	}
	if p.Accepted() == 0 {
		t.Fatal("expected some acceptances")
	}
}

func TestWeightMonotone(t *testing.T) {
	p := NewDense(8, constCap(2), 6)
	path := []EdgeID{3, 4, 5}
	last := 0.0
	for i := 0; i < 10; i++ {
		c := p.Cost(path)
		if c+1e-12 < last {
			t.Fatalf("cost decreased: %v < %v", c, last)
		}
		last = c
		p.Offer(path, c)
	}
}

func TestPanicOnLongPath(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for path longer than pmax")
		}
	}()
	p := NewDense(1, constCap(1), 3)
	p.Offer([]EdgeID{1, 2}, 0)
}

// TestMemoizedWeightsBitIdentical replays the packer's weight recurrence with
// the raw (unmemoized) formula — math.Exp2 evaluated on every update — and
// requires the memoized implementation to be bit-identical, not just close:
// determinism gates diff experiment output byte-for-byte.
func TestMemoizedWeightsBitIdentical(t *testing.T) {
	caps := []float64{1, 3} // the B/C two-capacity case
	capFn := func(e EdgeID) float64 { return caps[int(e)%2] }
	const pmax = 11
	p := NewDense(pmax, capFn, 8)

	want := make([]float64, 8)
	path := []EdgeID{0, 1, 2, 3}
	for i := 0; i < 50; i++ {
		p.Offer(path, 0) // force-accept; only the weight updates matter here
		for _, e := range path {
			g := math.Exp2(1 / capFn(e))
			want[e] = want[e]*g + (g-1)/float64(pmax)
		}
		for _, e := range path {
			if got := p.Weight(e); got != want[e] {
				t.Fatalf("offer %d edge %d: memoized weight %v (bits %x) != raw %v (bits %x)",
					i, e, got, math.Float64bits(got), want[e], math.Float64bits(want[e]))
			}
		}
	}
}
