package sketch

import (
	"reflect"
	"testing"

	"gridroute/internal/grid"
	"gridroute/internal/ipp"
)

// TestSessionMatchesDefault drives a warm Session (with a reused Route)
// against the Graph's default-session oracle across a sequence of queries
// under evolving packer weights: every route must be identical, including
// the Into variant's slice reuse.
func TestSessionMatchesDefault(t *testing.T) {
	st, down, _ := lineSetup(32, 3, 3, 200, 4)
	pk := ipp.NewDense(50, down.Cap, down.Universe())
	sess := down.NewSession()
	var out Route
	found := 0
	for q := 0; q < 60; q++ {
		r := &grid.Request{
			Src: grid.Vec{q % 8}, Dst: grid.Vec{8 + q%20},
			Arrival: int64(q / 2), Deadline: grid.InfDeadline,
		}
		src := st.SourcePoint(r)
		wLo, wHi := st.DestRay(r)
		want := down.LightestRoute(pk, src, r.Dst, wLo, wHi, 50)
		ok := sess.LightestRouteInto(pk, src, r.Dst, wLo, wHi, 50, &out)
		if (want == nil) != !ok {
			t.Fatalf("q %d: default nil=%v, session ok=%v", q, want == nil, ok)
		}
		if want == nil {
			pk.Offer(nil, 0)
			continue
		}
		found++
		if !reflect.DeepEqual(want.Tiles, out.Tiles) || !reflect.DeepEqual(want.Axes, out.Axes) ||
			!reflect.DeepEqual(want.Edges, out.Edges) || want.Cost != out.Cost {
			t.Fatalf("q %d: session route diverges:\n got %+v\nwant %+v", q, out, *want)
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
	wantA := down.LightestRoute(pk, srcA, ra.Dst, aLo, aHi, 50)
	wantB := down.LightestRoute(pk, srcB, rb.Dst, bLo, bHi, 50)
	if wantA == nil || wantB == nil {
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
		t.Fatalf("s2 diverges: %+v vs %+v", o2, *wantB)
	}
	// o1 must still hold A's route: s2's query ran on independent state.
	if !reflect.DeepEqual(wantA.Tiles, o1.Tiles) || !reflect.DeepEqual(wantA.Edges, o1.Edges) || wantA.Cost != o1.Cost {
		t.Fatalf("s1's route corrupted by s2: %+v vs %+v", o1, *wantA)
	}
	if !s1.LightestRouteInto(pk, srcA, ra.Dst, aLo, aHi, 50, &o1) || !reflect.DeepEqual(wantA.Tiles, o1.Tiles) {
		t.Fatal("s1 re-query diverges after interleaving")
	}
}

// TestSessionWarmStartParity drives a warm-start session and a cold session
// through the same query/commit sequence and requires identical routes. The
// sequence deliberately hits every warm-start branch: repeated identical
// queries with no commit between them (unchanged version — the DP is
// skipped entirely), re-queries of the same window right after an accepted
// commit (version moved — full rerun), window changes (cache miss), and
// long streaks that saturate edges (reject after reject, still a skip).
func TestSessionWarmStartParity(t *testing.T) {
	st, down, _ := lineSetup(32, 3, 3, 200, 4)
	pkWarm := ipp.NewDense(50, down.Cap, down.Universe())
	pkCold := ipp.NewDense(50, down.Cap, down.Universe())
	warm := down.NewSession()
	cold := down.NewSession()
	cold.SetWarmStart(false)
	var ow, oc Route

	queries := make([]*grid.Request, 0, 240)
	for q := 0; q < 40; q++ {
		r := &grid.Request{
			Src: grid.Vec{q % 6}, Dst: grid.Vec{10 + q%18},
			Arrival: int64(q / 3), Deadline: grid.InfDeadline,
		}
		// Each request repeats several times in a row: the repeats after an
		// accept rerun the DP, the repeats after a reject skip it.
		for rep := 0; rep < 6; rep++ {
			queries = append(queries, r)
		}
	}
	accepted := 0
	for qi, r := range queries {
		src := st.SourcePoint(r)
		wLo, wHi := st.DestRay(r)
		okW := warm.LightestRouteInto(pkWarm, src, r.Dst, wLo, wHi, 50, &ow)
		okC := cold.LightestRouteInto(pkCold, src, r.Dst, wLo, wHi, 50, &oc)
		if okW != okC {
			t.Fatalf("query %d: warm ok=%v cold ok=%v", qi, okW, okC)
		}
		if okW {
			if !reflect.DeepEqual(ow.Tiles, oc.Tiles) || !reflect.DeepEqual(ow.Axes, oc.Axes) ||
				!reflect.DeepEqual(ow.Edges, oc.Edges) || ow.Cost != oc.Cost {
				t.Fatalf("query %d: warm route diverges from cold:\nwarm %+v\ncold %+v", qi, ow, oc)
			}
			accW := pkWarm.Offer(ow.Edges, ow.Cost)
			accC := pkCold.Offer(oc.Edges, oc.Cost)
			if accW != accC {
				t.Fatalf("query %d: packers diverge: warm accept=%v cold=%v", qi, accW, accC)
			}
			if accW {
				accepted++
			}
		} else {
			pkWarm.Offer(nil, 0)
			pkCold.Offer(nil, 0)
		}
	}
	if accepted == 0 {
		t.Fatal("no accepts: the rerun after a commit was never exercised")
	}
	if pkWarm.Version() != pkCold.Version() || pkWarm.Accepted() != pkCold.Accepted() {
		t.Fatalf("packer states diverged: warm v%d/%d cold v%d/%d",
			pkWarm.Version(), pkWarm.Accepted(), pkCold.Version(), pkCold.Accepted())
	}
}
