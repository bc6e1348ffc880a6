package grid

import (
	"testing"
	"testing/quick"
)

func TestLineBasics(t *testing.T) {
	g := Line(8, 2, 1)
	if g.D() != 1 || g.N() != 8 || g.Diameter() != 7 {
		t.Fatalf("line basics wrong: d=%d n=%d diam=%d", g.D(), g.N(), g.Diameter())
	}
}

func TestGrid2D(t *testing.T) {
	g := New([]int{4, 4}, 3, 3)
	if g.N() != 16 || g.Diameter() != 6 {
		t.Fatalf("grid basics wrong")
	}
}

func TestIndexRoundTrip(t *testing.T) {
	g := New([]int{3, 5, 2}, 1, 1)
	buf := make(Vec, 3)
	for id := 0; id < g.N(); id++ {
		g.Node(id, buf)
		if got := g.Index(buf); got != id {
			t.Fatalf("round trip %v: %d != %d", buf, got, id)
		}
	}
}

func TestDist(t *testing.T) {
	g := New([]int{4, 4}, 1, 1)
	if d := g.Dist(Vec{0, 1}, Vec{3, 2}); d != 4 {
		t.Fatalf("dist = %d, want 4", d)
	}
	if d := g.Dist(Vec{2, 2}, Vec{1, 3}); d != -1 {
		t.Fatalf("unreachable dist = %d, want -1", d)
	}
}

func TestRequestFeasible(t *testing.T) {
	g := Line(10, 1, 1)
	r := Request{Src: Vec{2}, Dst: Vec{7}, Arrival: 3, Deadline: InfDeadline}
	if !r.Feasible(g) {
		t.Fatal("should be feasible")
	}
	r.Deadline = 7 // needs 5 steps from t=3 → earliest 8.
	if r.Feasible(g) {
		t.Fatal("deadline too tight, should be infeasible")
	}
	r.Deadline = 8
	if !r.Feasible(g) {
		t.Fatal("deadline exactly tight should be feasible")
	}
	r2 := Request{Src: Vec{7}, Dst: Vec{2}, Arrival: 0, Deadline: InfDeadline}
	if r2.Feasible(g) {
		t.Fatal("backwards request infeasible on uni-directional line")
	}
}

func TestValidateAll(t *testing.T) {
	g := Line(5, 1, 1)
	reqs := []Request{
		{Src: Vec{0}, Dst: Vec{4}, Arrival: 0, Deadline: InfDeadline},
		{Src: Vec{1}, Dst: Vec{2}, Arrival: 5, Deadline: InfDeadline},
	}
	if i := ValidateAll(g, reqs); i != -1 {
		t.Fatalf("valid set flagged at %d", i)
	}
	reqs[1].Arrival = -1
	if i := ValidateAll(g, reqs); i != 1 {
		t.Fatalf("out-of-order arrival not flagged (got %d)", i)
	}
}

func TestVecHelpers(t *testing.T) {
	v := Vec{1, 2, 3}
	w := v.Clone()
	w[0] = 9
	if v[0] != 1 {
		t.Fatal("clone aliases")
	}
	if v.Sum() != 6 {
		t.Fatal("sum wrong")
	}
	if !v.Eq(Vec{1, 2, 3}) || v.Eq(Vec{1, 2, 4}) {
		t.Fatal("Eq wrong")
	}
	if v.String() != "(1,2,3)" {
		t.Fatalf("String = %q", v.String())
	}
}

func TestIndexQuick(t *testing.T) {
	g := New([]int{7, 3, 4}, 1, 2)
	f := func(a, b, c uint8) bool {
		v := Vec{int(a) % 7, int(b) % 3, int(c) % 4}
		id := g.Index(v)
		w := g.Node(id, nil)
		return w.Eq(v) && id >= 0 && id < g.N()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaxArrival(t *testing.T) {
	reqs := []Request{{Arrival: 3}, {Arrival: 9}, {Arrival: 1}}
	if MaxArrival(reqs) != 9 {
		t.Fatal("MaxArrival wrong")
	}
	if MaxArrival(nil) != 0 {
		t.Fatal("empty MaxArrival should be 0")
	}
}
