package tiling

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gridroute/internal/lattice"
)

func TestTilesPartition(t *testing.T) {
	box := lattice.NewBox([]int{-5, 0}, []int{7, 13})
	tl := New(box, []int{4, 3}, []int{1, 2})
	pt := make([]int, 2)
	counts := make(map[int]int)
	for id := 0; id < box.Size(); id++ {
		box.Point(id, pt)
		tc := tl.TileOf(pt, nil)
		if !tl.TBox.Contains(tc) {
			t.Fatalf("tile %v of point %v outside TBox [%v,%v)", tc, pt, tl.TBox.Lo, tl.TBox.Hi)
		}
		counts[tl.TBox.Index(tc)]++
		// Origin + offset must reconstruct the point.
		org := tl.Origin(tc, nil)
		off := tl.Offset(pt, nil)
		for i := range pt {
			if org[i]+off[i] != pt[i] {
				t.Fatalf("origin %v + offset %v != %v", org, off, pt)
			}
			if off[i] < 0 || off[i] >= tl.Side[i] {
				t.Fatalf("offset %v out of range", off)
			}
		}
	}
	total := 0
	for _, c := range counts {
		if c > 4*3 {
			t.Fatalf("tile holds %d > %d points", c, 12)
		}
		total += c
	}
	if total != box.Size() {
		t.Fatalf("partition covers %d of %d points", total, box.Size())
	}
}

func TestPhaseShiftMovesBoundaries(t *testing.T) {
	box := lattice.NewBox([]int{0, 0}, []int{16, 16})
	a := New(box, []int{4, 4}, []int{0, 0})
	b := New(box, []int{4, 4}, []int{1, 0})
	// Point (4,0): with no phase it starts tile 1; with phase 1 the boundary
	// is at 1,5,9,… so 4 is in tile 0.
	pa := a.TileOf([]int{4, 0}, nil)
	pb := b.TileOf([]int{4, 0}, nil)
	if pa[0] != 1 || pb[0] != 0 {
		t.Fatalf("phase shift ignored: %v %v", pa, pb)
	}
}

func TestQuadrants(t *testing.T) {
	box := lattice.NewBox([]int{0, 0}, []int{12, 12})
	tl := New(box, []int{4, 6}, []int{0, 0})
	cases := []struct {
		p []int
		q Quadrant
	}{
		{[]int{0, 0}, SW}, {[]int{1, 2}, SW},
		{[]int{0, 3}, SE}, {[]int{1, 5}, SE},
		{[]int{2, 0}, NW}, {[]int{3, 2}, NW},
		{[]int{2, 3}, NE}, {[]int{3, 5}, NE},
		// Next tile over repeats the pattern.
		{[]int{4, 6}, SW}, {[]int{7, 11}, NE},
	}
	for _, c := range cases {
		if got := tl.QuadrantOf(c.p); got != c.q {
			t.Errorf("QuadrantOf(%v) = %v, want %v", c.p, got, c.q)
		}
	}
}

// Prop. 17 ingredient: with uniform random phase shifts, the probability a
// fixed point lands in the SW quadrant is (Side0/2)/Side0 · (Side1/2)/Side1
// = 1/4 for even sides.
func TestQuadrantShiftDistribution(t *testing.T) {
	box := lattice.NewBox([]int{0, 0}, []int{64, 64})
	rng := rand.New(rand.NewSource(5))
	point := []int{31, 17}
	side := []int{6, 8}
	sw := 0
	trials := 0
	for px := 0; px < side[0]; px++ {
		for py := 0; py < side[1]; py++ {
			tl := New(box, side, []int{px, py})
			if tl.QuadrantOf(point) == SW {
				sw++
			}
			trials++
		}
	}
	_ = rng
	if sw*4 != trials {
		t.Fatalf("SW fraction = %d/%d, want exactly 1/4 over all shifts", sw, trials)
	}
}

func TestTileOfQuick(t *testing.T) {
	box := lattice.NewBox([]int{-20, -20}, []int{20, 20})
	tl := New(box, []int{5, 7}, []int{2, 3})
	f := func(a, b int16) bool {
		p := []int{int(a)%20 - 0, int(b) % 20}
		if p[0] < -20 {
			p[0] = -20
		}
		tc := tl.TileOf(p, nil)
		org := tl.Origin(tc, nil)
		for i := range p {
			if p[i] < org[i] || p[i] >= org[i]+tl.Side[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBadConstruction(t *testing.T) {
	box := lattice.NewBox([]int{0}, []int{4})
	for _, bad := range []struct{ side, phase []int }{
		{[]int{0}, []int{0}},
		{[]int{3}, []int{3}},
		{[]int{3}, []int{-1}},
		{[]int{3, 3}, []int{0, 0}},
	} {
		func() {
			defer func() { recover() }()
			New(box, bad.side, bad.phase)
			t.Errorf("New(%v,%v) should panic", bad.side, bad.phase)
		}()
	}
}
