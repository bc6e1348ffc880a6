package lattice

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestBoxIndexRoundTrip(t *testing.T) {
	b := NewBox([]int{-3, 0, 5}, []int{2, 4, 9})
	if b.Size() != 5*4*4 {
		t.Fatalf("size = %d, want %d", b.Size(), 5*4*4)
	}
	pt := make([]int, 3)
	seen := make(map[int]bool)
	for id := 0; id < b.Size(); id++ {
		b.Point(id, pt)
		if !b.Contains(pt) {
			t.Fatalf("point %v of id %d not contained", pt, id)
		}
		if got := b.Index(pt); got != id {
			t.Fatalf("round trip %v: got %d want %d", pt, got, id)
		}
		seen[id] = true
	}
	if len(seen) != b.Size() {
		t.Fatalf("ids not unique")
	}
}

// TestBoxStepBack checks Step against coordinate arithmetic. The name is
// that of the deleted Box.Back, which it also covered.
func TestBoxStepBack(t *testing.T) {
	b := NewBox([]int{0, -2}, []int{3, 1})
	pt := make([]int, 2)
	nb := make([]int, 2)
	for id := 0; id < b.Size(); id++ {
		b.Point(id, pt)
		for a := 0; a < 2; a++ {
			n, ok := b.Step(id, a)
			copy(nb, pt)
			nb[a]++
			if ok != b.Contains(nb) {
				t.Fatalf("Step(%v,%d) ok=%v want %v", pt, a, ok, b.Contains(nb))
			}
			if ok && n != b.Index(nb) {
				t.Fatalf("Step(%v,%d) = %d want %d", pt, a, n, b.Index(nb))
			}
		}
	}
}

func TestL1(t *testing.T) {
	if L1([]int{1, 2}, []int{3, 5}) != 5 {
		t.Fatal("L1 mismatch")
	}
	if L1([]int{1, 2}, []int{0, 5}) != -1 {
		t.Fatal("unreachable should be -1")
	}
}

func TestPathEndVisit(t *testing.T) {
	p := &Path{Start: []int{1, 1}, Axes: []uint8{0, 1, 1}}
	end := p.End()
	if end[0] != 2 || end[1] != 3 {
		t.Fatalf("End = %v", end)
	}
	var count int
	p.Visit(func(pt []int) { count++ })
	if count != 4 {
		t.Fatalf("Visit count = %d, want 4", count)
	}
}

// refLightest is the test oracle every DP kernel is checked against: a naive
// push sweep over the window [winLo, winHi) of b in row-major order (a
// topological order) from the source winLo, relaxing the in-window
// out-edges of every reachable node with a strict <. It returns the window
// as a box, whose ids are window indices, with costs and predecessor axes
// laid out like DP's own buffers.
func refLightest(b *Box, winLo, winHi []int, edgeX, nodeX []float64) (win *Box, cost []float64, pred []int8) {
	d := b.D()
	win = NewBox(winLo, winHi)
	cost, pred = make([]float64, win.Size()), make([]int8, win.Size())
	for w := range cost {
		cost[w], pred[w] = Inf, -1
	}
	cost[0] = 0
	if nodeX != nil {
		cost[0] = nodeX[b.Index(winLo)]
	}
	p := make([]int, d)
	for w := range cost {
		if cost[w] == Inf {
			continue
		}
		id := b.Index(win.Point(w, p))
		for a := 0; a < d; a++ {
			nw, ok := win.Step(w, a)
			if !ok {
				continue
			}
			ec := cost[w] + edgeX[id*d+a]
			if nodeX != nil {
				ec += nodeX[id+b.stride[a]]
			}
			if ec < cost[nw] {
				cost[nw], pred[nw] = ec, int8(a)
			}
		}
	}
	return win, cost, pred
}

// filled returns a weight slice of n copies of v.
func filled(n int, v float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = v
	}
	return x
}

func TestDPAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		d := 2 + rng.Intn(2)
		lo := make([]int, d)
		hi := make([]int, d)
		for i := range lo {
			lo[i] = rng.Intn(5) - 2
			hi[i] = lo[i] + 2 + rng.Intn(5)
		}
		b := NewBox(lo, hi)
		edgeX := make([]float64, b.Size()*d)
		for i := range edgeX {
			edgeX[i] = rng.Float64()
		}
		nodeX := make([]float64, b.Size())
		for i := range nodeX {
			nodeX[i] = rng.Float64() * 0.3
		}

		src := append([]int(nil), lo...)
		dst := make([]int, d)
		for i := range dst {
			dst[i] = lo[i] + rng.Intn(hi[i]-lo[i])
		}
		dp := b.NewDP()
		dp.RunFlatBounded(lo, hi, edgeX, nodeX, Inf)
		got := dp.CostAt(dst)
		win, cost, _ := refLightest(b, lo, hi, edgeX, nodeX)
		if want := cost[win.Index(dst)]; got != want {
			t.Fatalf("trial %d: dp=%v reference=%v (src=%v dst=%v)", trial, got, want, src, dst)
		}
		if !math.IsInf(got, 1) {
			p := &Path{}
			if !dp.PathInto(dst, p) {
				t.Fatalf("reachable but no path")
			}
			if L1(src, dst) != p.Len() {
				t.Fatalf("path length %d != L1 %d", p.Len(), L1(src, dst))
			}
			// Recompute cost along the path.
			var c float64
			cur := append([]int(nil), p.Start...)
			c += nodeX[b.Index(cur)]
			for _, a := range p.Axes {
				c += edgeX[b.Index(cur)*d+int(a)]
				cur[a]++
				c += nodeX[b.Index(cur)]
			}
			if math.Abs(c-got) > 1e-9 {
				t.Fatalf("path cost %v != dp cost %v", c, got)
			}
			end := p.End()
			for i := range end {
				if end[i] != dst[i] {
					t.Fatalf("path ends at %v, want %v", end, dst)
				}
			}
		}
	}
}

func TestDPWindowRestricts(t *testing.T) {
	b := NewBox([]int{0, 0}, []int{10, 10})
	dp := b.NewDP()
	dp.RunFlatBounded([]int{0, 0}, []int{5, 5}, filled(b.Size()*2, 1), nil, Inf)
	if dp.CostAt([]int{4, 4}) != 8 {
		t.Fatalf("cost = %v, want 8", dp.CostAt([]int{4, 4}))
	}
	if !math.IsInf(dp.CostAt([]int{5, 5}), 1) {
		t.Fatal("outside window must be Inf")
	}
	if !math.IsInf(dp.CostAt([]int{9, 9}), 1) {
		t.Fatal("outside window must be Inf")
	}
}

// TestDPWindowOutsideBoxPanics: the DP solves only windows that are
// non-empty sub-boxes of its box, as package sketch builds them. A window
// that overhangs the box on any side, or is empty along any axis, is a
// caller bug and must panic with the constant message, not be clipped.
func TestDPWindowOutsideBoxPanics(t *testing.T) {
	b := NewBox([]int{-1, 0, 2}, []int{3, 4, 5})
	dp := b.NewDP()
	weights := filled(b.Size()*b.D(), 1)
	run := func(winLo, winHi []int) (msg string) {
		defer func() { msg, _ = recover().(string) }()
		dp.RunFlatBounded(winLo, winHi, weights, nil, Inf)
		return ""
	}
	if msg := run(b.Lo, b.Hi); msg != "" {
		t.Fatalf("the whole box panicked: %q", msg)
	}
	if msg := run([]int{0, 1, 3}, []int{1, 2, 4}); msg != "" {
		t.Fatalf("a one-node window panicked: %q", msg)
	}
	const want = "lattice: DP window is not a non-empty sub-box of the box"
	for a := 0; a < b.D(); a++ {
		lo, hi := slices.Clone(b.Lo), slices.Clone(b.Hi)
		lo[a]--
		if msg := run(lo, hi); msg != want {
			t.Errorf("window %v..%v overhangs axis %d below: panic %q, want %q", lo, hi, a, msg, want)
		}
		lo, hi = slices.Clone(b.Lo), slices.Clone(b.Hi)
		hi[a]++
		if msg := run(lo, hi); msg != want {
			t.Errorf("window %v..%v overhangs axis %d above: panic %q, want %q", lo, hi, a, msg, want)
		}
		lo, hi = slices.Clone(b.Lo), slices.Clone(b.Hi)
		hi[a] = lo[a]
		if msg := run(lo, hi); msg != want {
			t.Errorf("window %v..%v empty on axis %d: panic %q, want %q", lo, hi, a, msg, want)
		}
	}
}

func TestDPReuse(t *testing.T) {
	b := NewBox([]int{0, 0}, []int{6, 6})
	dp := b.NewDP()
	unit := filled(b.Size()*2, 1)
	dp.RunFlatBounded([]int{0, 0}, []int{6, 6}, unit, nil, Inf)
	first := dp.CostAt([]int{5, 5})
	dp.RunFlatBounded([]int{1, 1}, []int{4, 4}, unit, nil, Inf)
	if dp.CostAt([]int{3, 3}) != 4 {
		t.Fatalf("after reuse cost = %v, want 4", dp.CostAt([]int{3, 3}))
	}
	dp.RunFlatBounded([]int{0, 0}, []int{6, 6}, unit, nil, Inf)
	if dp.CostAt([]int{5, 5}) != first {
		t.Fatalf("reuse changed result: %v vs %v", dp.CostAt([]int{5, 5}), first)
	}
}

// TestNewDPRefusesTooManyAxes: the kernels decode coordinates into
// maxAxes-sized stack scratch, so NewDP must refuse a larger box up front
// with a message naming the limit, not index out of range mid-run.
func TestNewDPRefusesTooManyAxes(t *testing.T) {
	lo, hi := make([]int, maxAxes), make([]int, maxAxes)
	for i := range hi {
		hi[i] = 2
	}
	NewBox(lo, hi).NewDP() // at the limit: accepted
	big := NewBox(append(lo, 0), append(hi, 2))
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "maxAxes") {
			t.Fatalf("NewDP over %d axes: panic %q, want one naming maxAxes", big.D(), msg)
		}
	}()
	big.NewDP()
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{7, 2, 3}, {-7, 2, -4}, {-4, 2, -2}, {0, 5, 0}, {-1, 5, -1}, {4, 5, 0},
	}
	for _, c := range cases {
		if got := FloorDiv(c.a, c.b); got != c.want {
			t.Errorf("FloorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestFloorDivQuick(t *testing.T) {
	f := func(a int16, b uint8) bool {
		bb := int(b)%37 + 1
		q := FloorDiv(int(a), bb)
		r := int(a) - q*bb
		return r >= 0 && r < bb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: DP path hop count always equals L1 distance (box-DAG fact used by
// the pmax reduction).
func TestHopsEqualL1Quick(t *testing.T) {
	b := NewBox([]int{0, 0, 0}, []int{4, 4, 4})
	dp := b.NewDP()
	rng := rand.New(rand.NewSource(3))
	edgeX := make([]float64, b.Size()*3)
	var p Path
	f := func(sx, sy, sz, dx, dy, dz uint8) bool {
		s := []int{int(sx % 4), int(sy % 4), int(sz % 4)}
		d := []int{int(dx % 4), int(dy % 4), int(dz % 4)}
		for i := range d {
			if d[i] < s[i] {
				s[i], d[i] = d[i], s[i]
			}
		}
		for i := range edgeX {
			edgeX[i] = rng.Float64()
		}
		dp.RunFlatBounded(s, b.Hi, edgeX, nil, Inf)
		return dp.PathInto(d, &p) && p.Len() == L1(s, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randomBoxWeights builds a random box of dimension d with edge and node
// weight slices.
func randomBoxWeights(rng *rand.Rand, d, maxDim int) (*Box, []float64, []float64) {
	lo := make([]int, d)
	hi := make([]int, d)
	for i := range lo {
		lo[i] = rng.Intn(5) - 2
		hi[i] = lo[i] + 2 + rng.Intn(maxDim-1)
	}
	b := NewBox(lo, hi)
	edgeX := make([]float64, b.Size()*d)
	nodeX := make([]float64, b.Size())
	for i := range edgeX {
		edgeX[i] = rng.Float64()
	}
	for i := range nodeX {
		nodeX[i] = rng.Float64() * 0.3
	}
	return b, edgeX, nodeX
}

// randomWindow picks a random non-empty sub-window of b; its low corner is
// the DP's source.
func randomWindow(rng *rand.Rand, b *Box) (winLo, winHi []int) {
	d := b.D()
	winLo = make([]int, d)
	winHi = make([]int, d)
	for i := 0; i < d; i++ {
		winLo[i] = b.Lo[i] + rng.Intn(b.Hi[i]-b.Lo[i])
		winHi[i] = winLo[i] + 1 + rng.Intn(b.Hi[i]-winLo[i])
	}
	return winLo, winHi
}

// lowRankWindow picks a random sub-window whose axes of extent > 1 are
// exactly the set bits of wide (every axis of b must have extent ≥ 2): the
// window shapes RunFlatBounded sends to the 2-axis kernels when wide has at
// most two bits.
func lowRankWindow(rng *rand.Rand, b *Box, wide uint) (winLo, winHi []int) {
	d := b.D()
	winLo, winHi = make([]int, d), make([]int, d)
	for i := 0; i < d; i++ {
		if wide&(1<<i) == 0 {
			winLo[i] = b.Lo[i] + rng.Intn(b.Hi[i]-b.Lo[i])
			winHi[i] = winLo[i] + 1
		} else {
			winLo[i] = b.Lo[i] + rng.Intn(b.Hi[i]-b.Lo[i]-1)
			winHi[i] = winLo[i] + 2 + rng.Intn(b.Hi[i]-winLo[i]-1)
		}
	}
	return winLo, winHi
}

// requireReference runs dp over the window at bound Inf and checks every
// window cost and predecessor against the naive push sweep bit for bit.
func requireReference(t *testing.T, tag string, dp *DP, b *Box, winLo, winHi []int, edgeX, nodeX []float64) {
	t.Helper()
	dp.RunFlatBounded(winLo, winHi, edgeX, nodeX, Inf)
	win, cost, pred := refLightest(b, winLo, winHi, edgeX, nodeX)
	if dp.wsize != win.Size() {
		t.Fatalf("%s: wsize=%d, reference window has %d nodes", tag, dp.wsize, win.Size())
	}
	for w := range cost {
		if dp.cost[w] != cost[w] || dp.pred[w] != pred[w] {
			t.Fatalf("%s node %v: RunFlatBounded (%v,%d) != reference (%v,%d)",
				tag, win.Point(w, nil), dp.cost[w], dp.pred[w], cost[w], pred[w])
		}
	}
}

// TestRunFlatMatchesReference checks the DP at bound Inf against the naive
// push sweep bit for bit — every window cost and predecessor — for random
// weights, with and without node weights, over boxes of 1 to 5 axes: lines
// up to the 5-axis space-time boxes of 4-D scenario grids. Odd trials pass
// the whole box as the window. Each trial then runs a second random window
// on the same DP: setupWindow does not reset cost/pred, so state from the
// first, often larger, run must not leak through.
//
// The low-rank cases pin the kernel choice by window shape: in 3-, 4- and
// 5-axis boxes, windows with 0, 1 or 2 axes of extent > 1, at every axis
// position, run on the 2-axis kernels, which must read edges at the box's
// stride and store the real axis ids in pred. A 1×1×150 chain is the
// shape of every route window on a grid that fits in one spatial tile.
func TestRunFlatMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		d := 1 + rng.Intn(5)
		b, edgeX, nodeX := randomBoxWeights(rng, d, 5)
		winLo, winHi := randomWindow(rng, b)
		if trial%2 == 1 {
			winLo, winHi = b.Lo, b.Hi
		}
		var useNode []float64
		if trial%4 < 2 {
			useNode = nodeX
		}
		dp := b.NewDP()
		for run := 0; run < 2; run++ {
			if run == 1 {
				winLo, winHi = randomWindow(rng, b)
			}
			requireReference(t, fmt.Sprintf("trial %d run %d (d=%d)", trial, run, d), dp, b, winLo, winHi, edgeX, useNode)
		}
	}

	for d := 3; d <= 5; d++ {
		b, edgeX, nodeX := randomBoxWeights(rng, d, 5)
		dp := b.NewDP()
		for wide := uint(0); wide < 1<<d; wide++ {
			if bits.OnesCount(wide) > 2 {
				continue
			}
			winLo, winHi := lowRankWindow(rng, b, wide)
			for _, useNode := range [][]float64{nil, nodeX} {
				tag := fmt.Sprintf("d=%d wide=%0*b window [%v,%v) node=%v", d, d, wide, winLo, winHi, useNode != nil)
				requireReference(t, tag, dp, b, winLo, winHi, edgeX, useNode)
			}
		}
	}

	chain := NewBox([]int{0, 0, 0}, []int{2, 3, 160})
	edgeX, nodeX := make([]float64, chain.Size()*3), make([]float64, chain.Size())
	for i := range edgeX {
		edgeX[i] = rng.Float64()
	}
	for i := range nodeX {
		nodeX[i] = rng.Float64() * 0.3
	}
	dp := chain.NewDP()
	for _, useNode := range [][]float64{nil, nodeX} {
		requireReference(t, fmt.Sprintf("1x1x150 chain node=%v", useNode != nil), dp, chain,
			[]int{1, 2, 5}, []int{2, 3, 155}, edgeX, useNode)
	}
}

// TestRunFlatBoundedExact: below the bound the bounded sweep is bit-exact;
// at or above it, reported costs never dip below the bound (so a caller
// testing cost < bound gets exactly the unbounded answer). Odd trials use a
// window with at most two axes of extent > 1, which checks the 2-axis
// kernels' dead-row and alive-frontier cutoffs on low-rank windows of
// 3- to 5-axis boxes.
func TestRunFlatBoundedExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 120; trial++ {
		d := 2 + rng.Intn(4)
		b, edgeX, nodeX := randomBoxWeights(rng, d, 7)
		winLo, winHi := randomWindow(rng, b)
		if trial%2 == 1 {
			wide := uint(1)<<rng.Intn(d) | uint(1)<<rng.Intn(d)
			winLo, winHi = lowRankWindow(rng, b, wide)
		}
		var useNode []float64
		if trial%4 < 2 {
			useNode = nodeX
		}
		ref := b.NewDP()
		ref.RunFlatBounded(winLo, winHi, edgeX, useNode, Inf)
		bound := rng.Float64() * 4
		bdp := b.NewDP()
		bdp.RunFlatBounded(winLo, winHi, edgeX, useNode, bound)
		for w := 0; w < ref.wsize; w++ {
			switch {
			case ref.cost[w] < bound:
				if bdp.cost[w] != ref.cost[w] || bdp.pred[w] != ref.pred[w] {
					t.Fatalf("trial %d node %d below bound %v: (%v,%d) != exact (%v,%d)",
						trial, w, bound, bdp.cost[w], bdp.pred[w], ref.cost[w], ref.pred[w])
				}
			case bdp.cost[w] < bound:
				t.Fatalf("trial %d node %d: bounded cost %v < bound %v but exact is %v",
					trial, w, bdp.cost[w], bound, ref.cost[w])
			}
		}
	}
}

// TestMinCostRayMatchesCostAtScan checks the one-walk destination-ray scan
// against an ascending strict-< CostAt scan: same least cost, and — when it
// is finite — the same lowest coordinate achieving it. Every fourth trial
// has zero weights, so reachable costs tie. Rays lie inside the window, as
// MinCostRay requires.
func TestMinCostRayMatchesCostAtScan(t *testing.T) {
	scan := func(dp *DP, p []int, axis, lo, hi int) (float64, int) {
		q := append([]int(nil), p...)
		best, bestAt := Inf, lo
		for x := lo; x <= hi; x++ {
			q[axis] = x
			if c := dp.CostAt(q); c < best {
				best, bestAt = c, x
			}
		}
		return best, bestAt
	}
	check := func(tag string, dp *DP, p []int, axis, lo, hi int) {
		t.Helper()
		want, wantAt := scan(dp, p, axis, lo, hi)
		got, gotAt := dp.MinCostRay(p, axis, lo, hi)
		if got != want || (want != Inf && gotAt != wantAt) {
			t.Fatalf("%s: MinCostRay(%v, axis %d, [%d,%d]) = (%v,%d), CostAt scan (%v,%d)",
				tag, p, axis, lo, hi, got, gotAt, want, wantAt)
		}
	}
	rng := rand.New(rand.NewSource(53))
	finite := 0
	for trial := 0; trial < 80; trial++ {
		d := 1 + rng.Intn(5)
		b, edgeX, nodeX := randomBoxWeights(rng, d, 6)
		if trial%4 == 0 {
			edgeX, nodeX = make([]float64, len(edgeX)), nil
		} else if trial%2 == 0 {
			nodeX = nil
		}
		winLo, winHi := randomWindow(rng, b)
		dp := b.NewDP()
		dp.RunFlatBounded(winLo, winHi, edgeX, nodeX, Inf)
		for q := 0; q < 12; q++ {
			axis := rng.Intn(d)
			p := make([]int, d)
			for i := range p {
				p[i] = winLo[i] + rng.Intn(winHi[i]-winLo[i])
			}
			lo := winLo[axis] + rng.Intn(winHi[axis]-winLo[axis])
			hi := lo + rng.Intn(winHi[axis]-lo)
			check(fmt.Sprintf("trial %d query %d", trial, q), dp, p, axis, lo, hi)
			if c, _ := dp.MinCostRay(p, axis, lo, hi); c != Inf {
				finite++
			}
		}
	}
	if finite == 0 {
		t.Fatal("no query found a finite cost; the test exercised nothing")
	}
}
