package lattice

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
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
			p, ok2 := b.Back(id, a)
			copy(nb, pt)
			nb[a]--
			if ok2 != b.Contains(nb) {
				t.Fatalf("Back(%v,%d) ok=%v want %v", pt, a, ok2, b.Contains(nb))
			}
			if ok2 && p != b.Index(nb) {
				t.Fatalf("Back(%v,%d) = %d want %d", pt, a, p, b.Index(nb))
			}
		}
	}
}

func TestNumEdges(t *testing.T) {
	b := NewBox([]int{0, 0}, []int{3, 4})
	// Horizontal-ish: 3 columns of 4 → axis0 edges: 2*4=8; axis1: 3*3=9.
	if got := b.NumEdges(); got != 17 {
		t.Fatalf("NumEdges = %d, want 17", got)
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
// push sweep over the window [winLo, winHi) ∩ b in row-major order (a
// topological order), relaxing the in-window out-edges of every reachable
// node with a strict <. It returns the clipped window as a box, whose ids
// are window indices, with costs and predecessor axes laid out like DP's
// own buffers; win is nil when the window is empty or misses src.
func refLightest(b *Box, winLo, winHi, src []int, edgeX, nodeX []float64) (win *Box, cost []float64, pred []int8) {
	d := b.D()
	lo, hi := make([]int, d), make([]int, d)
	for i := range lo {
		lo[i], hi[i] = max(winLo[i], b.Lo[i]), min(winHi[i], b.Hi[i])
		if hi[i] <= lo[i] || src[i] < lo[i] || src[i] >= hi[i] {
			return nil, nil, nil
		}
	}
	win = NewBox(lo, hi)
	cost, pred = make([]float64, win.Size()), make([]int8, win.Size())
	for w := range cost {
		cost[w], pred[w] = Inf, -1
	}
	cost[win.Index(src)] = 0
	if nodeX != nil {
		cost[win.Index(src)] = nodeX[b.Index(src)]
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
		dp.RunFlat(lo, hi, src, edgeX, nodeX)
		got := dp.CostAt(dst)
		win, cost, _ := refLightest(b, lo, hi, src, edgeX, nodeX)
		if want := cost[win.Index(dst)]; got != want {
			t.Fatalf("trial %d: dp=%v reference=%v (src=%v dst=%v)", trial, got, want, src, dst)
		}
		if !math.IsInf(got, 1) {
			p := dp.PathTo(dst)
			if p == nil {
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
	dp.RunFlat([]int{0, 0}, []int{5, 5}, []int{0, 0}, filled(b.Size()*2, 1), nil)
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

func TestDPSourceOutsideWindow(t *testing.T) {
	b := NewBox([]int{0}, []int{4})
	dp := b.NewDP()
	dp.RunFlat([]int{2}, []int{4}, []int{0}, filled(b.Size(), 0), nil)
	if !math.IsInf(dp.CostAt([]int{3}), 1) {
		t.Fatal("invalid run should report Inf")
	}
}

func TestDPReuse(t *testing.T) {
	b := NewBox([]int{0, 0}, []int{6, 6})
	dp := b.NewDP()
	unit := filled(b.Size()*2, 1)
	dp.RunFlat([]int{0, 0}, []int{6, 6}, []int{0, 0}, unit, nil)
	first := dp.CostAt([]int{5, 5})
	dp.RunFlat([]int{1, 1}, []int{4, 4}, []int{1, 1}, unit, nil)
	if dp.CostAt([]int{3, 3}) != 4 {
		t.Fatalf("after reuse cost = %v, want 4", dp.CostAt([]int{3, 3}))
	}
	dp.RunFlat([]int{0, 0}, []int{6, 6}, []int{0, 0}, unit, nil)
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
		dp.RunFlat(b.Lo, b.Hi, s, edgeX, nil)
		p := dp.PathTo(d)
		return p != nil && p.Len() == L1(s, d)
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

// randomWindow picks a random non-empty sub-window and a source inside it.
func randomWindow(rng *rand.Rand, b *Box) (winLo, winHi, src []int) {
	d := b.D()
	winLo = make([]int, d)
	winHi = make([]int, d)
	src = make([]int, d)
	for i := 0; i < d; i++ {
		winLo[i] = b.Lo[i] + rng.Intn(b.Dim(i))
		winHi[i] = winLo[i] + 1 + rng.Intn(b.Hi[i]-winLo[i])
		src[i] = winLo[i] + rng.Intn(winHi[i]-winLo[i])
	}
	return winLo, winHi, src
}

// lowRankWindow picks a random sub-window whose axes of extent > 1 are
// exactly the set bits of wide (every axis of b must have extent ≥ 2), and a
// source inside it: the window shapes RunFlat sends to the 2-axis kernels
// when wide has at most two bits.
func lowRankWindow(rng *rand.Rand, b *Box, wide uint) (winLo, winHi, src []int) {
	d := b.D()
	winLo, winHi, src = make([]int, d), make([]int, d), make([]int, d)
	for i := 0; i < d; i++ {
		if wide&(1<<i) == 0 {
			winLo[i] = b.Lo[i] + rng.Intn(b.Dim(i))
			winHi[i] = winLo[i] + 1
		} else {
			winLo[i] = b.Lo[i] + rng.Intn(b.Dim(i)-1)
			winHi[i] = winLo[i] + 2 + rng.Intn(b.Hi[i]-winLo[i]-1)
		}
		src[i] = winLo[i] + rng.Intn(winHi[i]-winLo[i])
	}
	return winLo, winHi, src
}

// requireReference runs dp over the window and checks every window cost and
// predecessor against the naive push sweep bit for bit.
func requireReference(t *testing.T, tag string, dp *DP, b *Box, winLo, winHi, src []int, edgeX, nodeX []float64) {
	t.Helper()
	dp.RunFlat(winLo, winHi, src, edgeX, nodeX)
	win, cost, pred := refLightest(b, winLo, winHi, src, edgeX, nodeX)
	if !dp.valid || dp.wsize != win.Size() {
		t.Fatalf("%s: valid=%v wsize=%d, reference window has %d nodes", tag, dp.valid, dp.wsize, win.Size())
	}
	for w := range cost {
		if dp.cost[w] != cost[w] || dp.pred[w] != pred[w] {
			t.Fatalf("%s node %v: RunFlat (%v,%d) != reference (%v,%d)",
				tag, win.Point(w, nil), dp.cost[w], dp.pred[w], cost[w], pred[w])
		}
	}
}

// TestRunFlatMatchesReference checks RunFlat against the naive push sweep
// bit for bit — every window cost and predecessor — for random weights, with
// and without node weights, over boxes of 1 to 5 axes: lines up to the
// 5-axis space-time boxes of 4-D scenario grids. Odd trials pass a window
// overhanging the box on every side, so the clipping is checked too. Each
// trial then runs a second random window on the same DP: setupWindow does
// not reset cost/pred, so state from the first, often larger, run must not
// leak through.
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
		winLo, winHi, src := randomWindow(rng, b)
		if trial%2 == 1 {
			for i := range winLo {
				winLo[i], winHi[i] = b.Lo[i]-1, b.Hi[i]+1
			}
		}
		var useNode []float64
		if trial%4 < 2 {
			useNode = nodeX
		}
		dp := b.NewDP()
		for run := 0; run < 2; run++ {
			if run == 1 {
				winLo, winHi, src = randomWindow(rng, b)
			}
			requireReference(t, fmt.Sprintf("trial %d run %d (d=%d)", trial, run, d), dp, b, winLo, winHi, src, edgeX, useNode)
		}
	}

	for d := 3; d <= 5; d++ {
		b, edgeX, nodeX := randomBoxWeights(rng, d, 5)
		dp := b.NewDP()
		for wide := uint(0); wide < 1<<d; wide++ {
			if bits.OnesCount(wide) > 2 {
				continue
			}
			winLo, winHi, src := lowRankWindow(rng, b, wide)
			for _, useNode := range [][]float64{nil, nodeX} {
				tag := fmt.Sprintf("d=%d wide=%0*b window [%v,%v) src %v node=%v", d, d, wide, winLo, winHi, src, useNode != nil)
				requireReference(t, tag, dp, b, winLo, winHi, src, edgeX, useNode)
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
			[]int{1, 2, 5}, []int{2, 3, 155}, []int{1, 2, 5}, edgeX, useNode)
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
		winLo, winHi, src := randomWindow(rng, b)
		if trial%2 == 1 {
			wide := uint(1)<<rng.Intn(d) | uint(1)<<rng.Intn(d)
			winLo, winHi, src = lowRankWindow(rng, b, wide)
		}
		var useNode []float64
		if trial%4 < 2 {
			useNode = nodeX
		}
		ref := b.NewDP()
		ref.RunFlat(winLo, winHi, src, edgeX, useNode)
		bound := rng.Float64() * 4
		bdp := b.NewDP()
		bdp.RunFlatBounded(winLo, winHi, src, edgeX, useNode, bound)
		if !ref.valid {
			continue
		}
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
// has zero weights, so reachable costs tie; rays overhang the window at both
// ends, and the fixed coordinates sometimes fall one step outside it.
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
		winLo, winHi, src := randomWindow(rng, b)
		dp := b.NewDP()
		dp.RunFlat(winLo, winHi, src, edgeX, nodeX)
		for q := 0; q < 12; q++ {
			axis := rng.Intn(d)
			p := make([]int, d)
			for i := range p {
				p[i] = winLo[i] - 1 + rng.Intn(winHi[i]-winLo[i]+2)
			}
			lo := winLo[axis] - 2 + rng.Intn(winHi[axis]-winLo[axis]+2)
			hi := lo - 1 + rng.Intn(winHi[axis]-lo+3)
			check(fmt.Sprintf("trial %d query %d", trial, q), dp, p, axis, lo, hi)
			if c, _ := dp.MinCostRay(p, axis, lo, hi); c != Inf {
				finite++
			}
		}
	}
	if finite == 0 {
		t.Fatal("no query found a finite cost; the test exercised nothing")
	}

	// A DP whose last run was over an empty window holds no solution, even
	// for a ray the previous run covered.
	b := NewBox([]int{0, 0}, []int{4, 4})
	dp := b.NewDP()
	dp.RunFlat(b.Lo, b.Hi, b.Lo, make([]float64, b.Size()*2), nil)
	if c, at := dp.MinCostRay([]int{2, 0}, 1, 0, 3); c != 0 || at != 0 {
		t.Fatalf("zero-weight ray: (%v,%d), want (0,0)", c, at)
	}
	dp.RunFlat([]int{4, 0}, []int{6, 4}, []int{4, 0}, make([]float64, b.Size()*2), nil)
	check("after an empty window", dp, []int{2, 0}, 1, 0, 3)
	if c, _ := dp.MinCostRay([]int{2, 0}, 1, 0, 3); c != Inf {
		t.Fatalf("after an empty window: cost %v, want Inf", c)
	}
}
