package sketch

import (
	"reflect"
	"testing"

	"gridroute/internal/grid"
	"gridroute/internal/ipp"
)

// TestSessionMatchesDefault drives a warm Session with one reused Route
// against a reference session that answers each query into a default
// (zero) Route, across a sequence of queries under evolving packer
// weights: every route must be identical, so reusing out's slices changes
// nothing.
func TestSessionMatchesDefault(t *testing.T) {
	st, down, _ := lineSetup(32, 3, 3, 200, 4)
	pk := ipp.NewDense(50, down.Cap, down.Universe())
	sess, ref := down.NewSession(), down.NewSession()
	var out Route
	found := 0
	for q := 0; q < 60; q++ {
		r := &grid.Request{
			Src: grid.Vec{q % 8}, Dst: grid.Vec{8 + q%20},
			Arrival: int64(q / 2), Deadline: grid.InfDeadline,
		}
		src := st.SourcePoint(r)
		wLo, wHi := st.DestRay(r)
		var want Route
		okRef := ref.LightestRouteInto(pk, src, r.Dst, wLo, wHi, 50, &want)
		ok := sess.LightestRouteInto(pk, src, r.Dst, wLo, wHi, 50, &out)
		if okRef != ok {
			t.Fatalf("q %d: reference ok=%v, session ok=%v", q, okRef, ok)
		}
		if !ok {
			pk.Offer(nil, 0)
			continue
		}
		found++
		if !reflect.DeepEqual(want.Tiles, out.Tiles) || !reflect.DeepEqual(want.Axes, out.Axes) ||
			!reflect.DeepEqual(want.Edges, out.Edges) || want.Cost != out.Cost {
			t.Fatalf("q %d: session route diverges:\n got %+v\nwant %+v", q, out, want)
		}
		// Advance the weight state so later queries see non-trivial costs.
		pk.Offer(want.Edges, want.Cost)
	}
	if found == 0 {
		t.Fatal("no query found a route; test exercised nothing")
	}
}

// TestSessionsIndependent interleaves two sessions over one graph: each
// must behave as if it were alone (the DP and scratch state must not bleed).
func TestSessionsIndependent(t *testing.T) {
	st, down, _ := lineSetup(32, 3, 3, 200, 4)
	pk := ipp.NewDense(50, down.Cap, down.Universe())
	s1, s2 := down.NewSession(), down.NewSession()
	var o1, o2 Route

	ra := &grid.Request{Src: grid.Vec{1}, Dst: grid.Vec{9}, Arrival: 0, Deadline: grid.InfDeadline}
	rb := &grid.Request{Src: grid.Vec{4}, Dst: grid.Vec{27}, Arrival: 2, Deadline: grid.InfDeadline}
	srcA, srcB := st.SourcePoint(ra), st.SourcePoint(rb)
	aLo, aHi := st.DestRay(ra)
	bLo, bHi := st.DestRay(rb)

	// Reference answers, one session at a time.
	var wantA, wantB Route
	ref := down.NewSession()
	if !ref.LightestRouteInto(pk, srcA, ra.Dst, aLo, aHi, 50, &wantA) ||
		!ref.LightestRouteInto(pk, srcB, rb.Dst, bLo, bHi, 50, &wantB) {
		t.Fatal("reference queries must succeed")
	}

	// Interleave: s1 queries A, s2 queries B, then s1 re-queries A. The
	// packer is read-only here, so all answers must equal the references.
	if !s1.LightestRouteInto(pk, srcA, ra.Dst, aLo, aHi, 50, &o1) {
		t.Fatal("s1 query failed")
	}
	if !s2.LightestRouteInto(pk, srcB, rb.Dst, bLo, bHi, 50, &o2) {
		t.Fatal("s2 query failed")
	}
	if !reflect.DeepEqual(wantB.Tiles, o2.Tiles) || wantB.Cost != o2.Cost {
		t.Fatalf("s2 diverges: %+v vs %+v", o2, wantB)
	}
	// o1 must still hold A's route: s2's query ran on independent state.
	if !reflect.DeepEqual(wantA.Tiles, o1.Tiles) || !reflect.DeepEqual(wantA.Edges, o1.Edges) || wantA.Cost != o1.Cost {
		t.Fatalf("s1's route corrupted by s2: %+v vs %+v", o1, wantA)
	}
	if !s1.LightestRouteInto(pk, srcA, ra.Dst, aLo, aHi, 50, &o1) || !reflect.DeepEqual(wantA.Tiles, o1.Tiles) {
		t.Fatal("s1 re-query diverges after interleaving")
	}
}
