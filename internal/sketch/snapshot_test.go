package sketch

import (
	"reflect"
	"testing"

	"gridroute/internal/grid"
	"gridroute/internal/ipp"
)

// TestSnapshotSolveParity drives the snapshot solve behind
// LightestRouteMasked against the canonical oracle under evolving weights:
// for every query, prepareQuery + snapshotWindow + solveSnapshot on a
// full-universe snapshot buffer must produce exactly the route
// LightestRouteInto computes on the live weights — so an empty outage mask
// routes exactly like no mask.
func TestSnapshotSolveParity(t *testing.T) {
	st, down, _ := lineSetup(32, 3, 3, 200, 4)
	pk := ipp.NewDense(50, down.Cap, down.Universe())
	live := down.NewSession()
	snap := down.NewSession()
	xs := make([]float64, down.Universe())
	var want, got Route
	found := 0
	for q := 0; q < 60; q++ {
		r := &grid.Request{
			Src: grid.Vec{q % 8}, Dst: grid.Vec{8 + q%20},
			Arrival: int64(q / 2), Deadline: grid.InfDeadline,
		}
		src := st.SourcePoint(r)
		wLo, wHi := st.DestRay(r)
		liveOK := live.LightestRouteInto(pk, src, r.Dst, wLo, wHi, 50, &want)

		prepOK := snap.prepareQuery(src, r.Dst, wLo, wHi, 50)
		if prepOK {
			snap.snapshotWindow(pk.Weights(), xs)
		}
		snapOK := prepOK && snap.solveSnapshot(xs, &got)
		if liveOK != snapOK {
			t.Fatalf("q %d: live ok=%v, snapshot ok=%v", q, liveOK, snapOK)
		}
		if !liveOK {
			pk.Offer(nil, 0)
			continue
		}
		found++
		if !reflect.DeepEqual(want.Tiles, got.Tiles) || !reflect.DeepEqual(want.Axes, got.Axes) ||
			!reflect.DeepEqual(want.Edges, got.Edges) || want.Cost != got.Cost {
			t.Fatalf("q %d: snapshot route diverges:\n got %+v\nwant %+v", q, got, want)
		}
		pk.Offer(want.Edges, want.Cost)
	}
	if found == 0 {
		t.Fatal("no query found a route; parity exercised nothing")
	}
}

// TestSnapshotWindowCopiesOnlyWindow checks the O(window) contract: rows
// inside the prepared window land in the snapshot buffer exactly, and ids
// outside it are never touched (sentinel survives) — including the
// interior-edge tail in Downscaled mode.
func TestSnapshotWindowCopiesOnlyWindow(t *testing.T) {
	st, down, _ := lineSetup(32, 3, 3, 200, 4)
	pk := ipp.NewDense(50, down.Cap, down.Universe())
	sess := down.NewSession()

	// Give every edge a distinctive weight via direct commits.
	from := pk.Weights()
	for i := range from {
		from[i] = float64(i) + 0.5
	}

	r := &grid.Request{Src: grid.Vec{9}, Dst: grid.Vec{20}, Arrival: 4, Deadline: grid.InfDeadline}
	src := st.SourcePoint(r)
	wLo, wHi := st.DestRay(r)
	if !sess.prepareQuery(src, r.Dst, wLo, wHi, 50) {
		t.Fatal("prepare failed")
	}
	const sentinel = -1.0
	into := make([]float64, down.Universe())
	for i := range into {
		into[i] = sentinel
	}
	sess.snapshotWindow(from, into)

	lo, hi := sess.winLo, sess.winHi
	axes := down.axes
	base := down.Tl.TBox.Size() * axes
	pt := make([]int, axes)
	inWindow := func(tile int) bool {
		down.TileCoords(tile, pt)
		for a := range pt {
			if pt[a] < lo[a] || pt[a] >= hi[a] {
				return false
			}
		}
		return true
	}
	copied, skipped := 0, 0
	for tile := 0; tile < down.Tl.TBox.Size(); tile++ {
		ids := []int{base + tile}
		for a := 0; a < axes; a++ {
			ids = append(ids, tile*axes+a)
		}
		for _, id := range ids {
			if inWindow(tile) {
				if into[id] != from[id] {
					t.Fatalf("window id %d (tile %d): got %v, want %v", id, tile, into[id], from[id])
				}
				copied++
			} else if into[id] != sentinel {
				t.Fatalf("out-of-window id %d (tile %d) was written: %v", id, tile, into[id])
			} else {
				skipped++
			}
		}
	}
	if copied == 0 || skipped == 0 {
		t.Fatalf("degenerate window (copied=%d skipped=%d); contract not exercised", copied, skipped)
	}
}
