package spacetime

import (
	"testing"
	"testing/quick"

	"gridroute/internal/grid"
	"gridroute/internal/lattice"
)

func TestUntiltRoundTrip(t *testing.T) {
	g := grid.New([]int{4, 3}, 2, 1)
	st := New(g, 50)
	f := func(a, b uint8, tt uint16) bool {
		v := grid.Vec{int(a) % 4, int(b) % 3}
		tm := int64(tt % 50)
		p := st.ToLattice(v, tm, nil)
		w, t2 := st.FromLattice(p, nil)
		return w.Eq(v) && t2 == tm && TimeOf(p) == tm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Fig. 3 property: untilting maps E0 edges (u,t)→(v,t+1) and E1 edges
// (u,t)→(u,t+1) to axis-parallel unit steps.
func TestUntiltEdgesAxisParallel(t *testing.T) {
	g := grid.Line(6, 2, 1)
	st := New(g, 20)
	v := grid.Vec{3}
	tm := int64(7)
	p := st.ToLattice(v, tm, nil)

	// E0: transmit 3→4 between t=7 and t=8.
	q := st.ToLattice(grid.Vec{4}, tm+1, nil)
	if q[0]-p[0] != 1 || q[1] != p[1] {
		t.Fatalf("E0 edge not a unit x-step: %v -> %v", p, q)
	}
	// E1: hold at node 3.
	r := st.ToLattice(v, tm+1, nil)
	if r[0] != p[0] || r[1]-p[1] != 1 {
		t.Fatalf("E1 edge not a unit w-step: %v -> %v", p, r)
	}
}

func TestBoxBounds(t *testing.T) {
	g := grid.New([]int{4, 4}, 1, 1)
	st := New(g, 10)
	// Node (3,3) at time 0 has w = -6 = -diam; must be inside.
	p := st.ToLattice(grid.Vec{3, 3}, 0, nil)
	if !st.Box.Contains(p) {
		t.Fatalf("corner point %v outside box", p)
	}
	// Node (0,0) at time T.
	p = st.ToLattice(grid.Vec{0, 0}, 10, nil)
	if !st.Box.Contains(p) {
		t.Fatalf("late point %v outside box", p)
	}
}

func TestCaps(t *testing.T) {
	g := grid.New([]int{4, 4}, 5, 3)
	st := New(g, 10)
	if st.Cap(0) != 3 || st.Cap(1) != 3 {
		t.Fatal("space axes should have capacity c")
	}
	if st.Cap(g.D()) != 5 {
		t.Fatal("w axis should have capacity B")
	}
}

func TestDestRay(t *testing.T) {
	g := grid.Line(10, 1, 1)
	st := New(g, 30)
	r := &grid.Request{Src: grid.Vec{2}, Dst: grid.Vec{7}, Arrival: 3, Deadline: 12}
	lo, hi := st.DestRay(r)
	// Copies (7, t') for t' in [3,12] → w = t'-7 in [-4, 5].
	if lo != -4 || hi != 5 {
		t.Fatalf("dest ray [%d,%d], want [-4,5]", lo, hi)
	}
	// The earliest *reachable* copy is at w = src.w = 1 (t' = 8 = 3+dist).
	src := st.SourcePoint(r)
	if src[0] != 2 || src[1] != 1 {
		t.Fatalf("source point %v", src)
	}
	// No deadline: bounded by horizon.
	r2 := &grid.Request{Src: grid.Vec{2}, Dst: grid.Vec{7}, Arrival: 3, Deadline: grid.InfDeadline}
	lo2, hi2 := st.DestRay(r2)
	if lo2 != -4 || hi2 != 30-7 {
		t.Fatalf("dest ray [%d,%d], want [-4,23]", lo2, hi2)
	}
}

func TestScheduleRoundTrip(t *testing.T) {
	g := grid.Line(8, 2, 1)
	st := New(g, 40)
	r := &grid.Request{Src: grid.Vec{1}, Dst: grid.Vec{4}, Arrival: 2, Deadline: grid.InfDeadline}
	p := &lattice.Path{Start: st.ToLattice(r.Src, r.Arrival, nil), Axes: []uint8{0, 1, 0, 0}}
	s := st.PathToSchedule(r, p)
	if len(s.Moves) != 4 || s.Moves[1] != Hold {
		t.Fatalf("schedule moves: %v", s.Moves)
	}
	end, tm := s.EndState()
	if !end.Eq(grid.Vec{4}) || tm != 6 {
		t.Fatalf("end state %v @%d", end, tm)
	}
	if !s.Delivers() {
		t.Fatal("should deliver")
	}
	back := st.ScheduleToPath(s)
	if back.Len() != 4 || back.Axes[1] != 1 {
		t.Fatalf("round trip path: %+v", back)
	}
}

func TestDeadlineMiss(t *testing.T) {
	r := &grid.Request{Src: grid.Vec{0}, Dst: grid.Vec{2}, Arrival: 0, Deadline: 3}
	s := &Schedule{Req: r, Src: grid.Vec{0}, StartT: 0, Moves: []Move{Hold, Hold, 0, 0}}
	if s.Delivers() {
		t.Fatal("arrives at t=4 > deadline 3")
	}
	s2 := &Schedule{Req: r, Src: grid.Vec{0}, StartT: 0, Moves: []Move{Hold, 0, 0}}
	if !s2.Delivers() {
		t.Fatal("arrives at t=3 = deadline; should count")
	}
}

func TestSuggestHorizon(t *testing.T) {
	g := grid.Line(10, 4, 2)
	reqs := []grid.Request{{Arrival: 17}}
	h := SuggestHorizon(g, reqs, 2)
	if h <= 17 {
		t.Fatalf("horizon %d too small", h)
	}
}
