package lattice

import (
	"math"
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
				ec += nodeX[id+b.Stride(a)]
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

// TestRunFlatMatchesReference checks RunFlat against the naive push sweep
// bit for bit — every window cost and predecessor — for random weights, with
// and without node weights, over boxes of 1 to 5 axes: lines up to the
// 5-axis space-time boxes of 4-D scenario grids. Odd trials pass a window
// overhanging the box on every side, so the clipping is checked too. Each
// trial then runs a second random window on the same DP: setupWindow does
// not reset cost/pred, so state from the first, often larger, run must not
// leak through.
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
			dp.RunFlat(winLo, winHi, src, edgeX, useNode)
			win, cost, pred := refLightest(b, winLo, winHi, src, edgeX, useNode)
			if !dp.valid || dp.wsize != win.Size() {
				t.Fatalf("trial %d run %d (d=%d): valid=%v wsize=%d, reference window has %d nodes",
					trial, run, d, dp.valid, dp.wsize, win.Size())
			}
			for w := range cost {
				if dp.cost[w] != cost[w] || dp.pred[w] != pred[w] {
					t.Fatalf("trial %d run %d (d=%d) node %v: RunFlat (%v,%d) != reference (%v,%d)",
						trial, run, d, win.Point(w, nil), dp.cost[w], dp.pred[w], cost[w], pred[w])
				}
			}
		}
	}
}
