package sketch

import (
	"math"
	"testing"

	"gridroute/internal/grid"
	"gridroute/internal/ipp"
	"gridroute/internal/spacetime"
	"gridroute/internal/tiling"
)

func lineSetup(n int, b, c int, T int64, k int) (*spacetime.Graph, *Graph, *Graph) {
	g := grid.Line(n, b, c)
	st := spacetime.New(g, T)
	tl := tiling.New(st.Box, []int{k, k}, []int{0, 0})
	return st, New(st, tl, Downscaled), New(st, tl, Raw)
}

func TestCapacities(t *testing.T) {
	st, down, raw := lineSetup(32, 2, 3, 100, 4)
	_ = st
	// Raw: space axis capacity c·k = 12, w axis B·k = 8 (Fig. 3e caption,
	// "c·τ and B·Q").
	if got := raw.RawCap(0); got != 12 {
		t.Fatalf("raw space cap = %d, want 12", got)
	}
	if got := raw.RawCap(1); got != 8 {
		t.Fatalf("raw w cap = %d, want 8", got)
	}
	// Downscaled (Fig. 4): inter-tile 1, interior 2.
	if got := down.Cap(down.AxisEdgeID(0, 0)); got != 1 {
		t.Fatalf("downscaled edge cap = %v, want 1", got)
	}
	if got := down.Cap(down.InteriorEdgeID(0)); got != 2 {
		t.Fatalf("interior cap = %v, want 2", got)
	}
	// Raw mode has no interior edges: its universe is the inter-tile edges.
	if got, want := raw.Universe(), raw.Tl.TBox.Size()*2; got != want {
		t.Fatalf("raw universe = %d, want %d (no interior tail)", got, want)
	}
	if got, want := down.Universe(), down.Tl.TBox.Size()*3; got != want {
		t.Fatalf("downscaled universe = %d, want %d", got, want)
	}
}

func TestEdgeIDRoundTrip(t *testing.T) {
	_, down, _ := lineSetup(16, 1, 1, 50, 4)
	for tile := 0; tile < down.Tl.TBox.Size(); tile += 7 {
		for a := 0; a < 2; a++ {
			tid, ax, inter := down.DecodeEdge(down.AxisEdgeID(tile, a))
			if tid != tile || ax != a || inter {
				t.Fatalf("axis edge decode (%d,%d) -> (%d,%d,%v)", tile, a, tid, ax, inter)
			}
		}
		tid, _, inter := down.DecodeEdge(down.InteriorEdgeID(tile))
		if tid != tile || !inter {
			t.Fatalf("interior edge decode %d -> (%d,%v)", tile, tid, inter)
		}
	}
}

func TestLightestRouteStraightLine(t *testing.T) {
	st, down, _ := lineSetup(32, 2, 2, 200, 4)
	pk := ipp.NewDense(100, down.Cap, down.Universe())
	r := &grid.Request{Src: grid.Vec{1}, Dst: grid.Vec{9}, Arrival: 0, Deadline: grid.InfDeadline}
	src := st.SourcePoint(r)
	wLo, wHi := st.DestRay(r)
	var route Route
	if !down.NewSession().LightestRouteInto(pk, src, r.Dst, wLo, wHi, 100, &route) {
		t.Fatal("no route found")
	}
	// With zero weights the lightest route is the spatially-direct one:
	// src tile (0, ...) to dest tile row 9/4 = 2; minimal tiles = 3.
	if route.NumTiles() != 3 {
		t.Fatalf("route has %d tiles, want 3: axes %v", route.NumTiles(), route.Axes)
	}
	if route.Cost != 0 {
		t.Fatalf("initial cost = %v, want 0", route.Cost)
	}
	// Edge list interleaves interiors: 3 interiors + 2 axis edges.
	if len(route.Edges) != 5 {
		t.Fatalf("edges = %d, want 5", len(route.Edges))
	}
}

func TestLightestRouteRespectsDeadlineRay(t *testing.T) {
	st, down, _ := lineSetup(32, 2, 2, 200, 4)
	pk := ipp.NewDense(100, down.Cap, down.Universe())
	// Tight deadline: only earliest copies qualify.
	r := &grid.Request{Src: grid.Vec{1}, Dst: grid.Vec{9}, Arrival: 0, Deadline: 9}
	src := st.SourcePoint(r)
	wLo, wHi := st.DestRay(r)
	if wHi-wLo > 9 {
		t.Fatalf("ray too wide: [%d,%d]", wLo, wHi)
	}
	sess := down.NewSession()
	var route Route
	if !sess.LightestRouteInto(pk, src, r.Dst, wLo, wHi, 100, &route) {
		t.Fatal("route should exist for feasible deadline")
	}
	// Infeasible spatial request.
	r2 := &grid.Request{Src: grid.Vec{20}, Dst: grid.Vec{9}, Arrival: 0, Deadline: grid.InfDeadline}
	src2 := st.SourcePoint(r2)
	if sess.LightestRouteInto(pk, src2, r2.Dst, wLo, wHi, 100, &route) {
		t.Fatal("backwards request must have no route")
	}
}

func TestMaxTilesBudget(t *testing.T) {
	st, down, _ := lineSetup(64, 2, 2, 400, 4)
	pk := ipp.NewDense(1000, down.Cap, down.Universe())
	r := &grid.Request{Src: grid.Vec{0}, Dst: grid.Vec{40}, Arrival: 0, Deadline: grid.InfDeadline}
	src := st.SourcePoint(r)
	wLo, wHi := st.DestRay(r)
	// Needs ≥ 11 tiles spatially (rows 0..10); a budget of 5 must fail.
	sess := down.NewSession()
	var route Route
	if sess.LightestRouteInto(pk, src, r.Dst, wLo, wHi, 5, &route) {
		t.Fatal("budget 5 should make route impossible")
	}
	if !sess.LightestRouteInto(pk, src, r.Dst, wLo, wHi, 11, &route) || route.NumTiles() != 11 {
		t.Fatalf("budget 11 should give exactly 11 tiles, got %+v", route)
	}
}

func TestWeightsDivertRoutes(t *testing.T) {
	st, down, _ := lineSetup(16, 3, 3, 200, 4)
	pk := ipp.NewDense(50, down.Cap, down.Universe())
	r := &grid.Request{Src: grid.Vec{1}, Dst: grid.Vec{9}, Arrival: 0, Deadline: grid.InfDeadline}
	src := st.SourcePoint(r)
	wLo, wHi := st.DestRay(r)
	// Saturate the direct route a few times; the oracle should start
	// picking routes that detour in w.
	sess := down.NewSession()
	var route Route
	firstCost := math.NaN()
	for i := 0; i < 6; i++ {
		if !sess.LightestRouteInto(pk, src, r.Dst, wLo, wHi, 50, &route) {
			break
		}
		if math.IsNaN(firstCost) {
			firstCost = route.Cost
		}
		if !pk.Offer(route.Edges, route.Cost) {
			break
		}
	}
	if !sess.LightestRouteInto(pk, src, r.Dst, wLo, wHi, 50, &route) {
		t.Fatal("expected some route even under load")
	}
	if !(route.Cost > firstCost) {
		t.Fatalf("route cost should grow under load: first %v last %v", firstCost, route.Cost)
	}
}

func TestRouteTilesConsistent(t *testing.T) {
	st, _, raw := lineSetup(32, 1, 1, 200, 8)
	pk := ipp.NewDense(100, raw.Cap, raw.Universe())
	r := &grid.Request{Src: grid.Vec{2}, Dst: grid.Vec{20}, Arrival: 3, Deadline: grid.InfDeadline}
	src := st.SourcePoint(r)
	wLo, wHi := st.DestRay(r)
	var route Route
	if !raw.NewSession().LightestRouteInto(pk, src, r.Dst, wLo, wHi, 100, &route) {
		t.Fatal("no route")
	}
	// Tiles must be adjacent along the declared axes.
	tc := make([]int, 2)
	prev := make([]int, 2)
	raw.TileCoords(route.Tiles[0], prev)
	for i, a := range route.Axes {
		raw.TileCoords(route.Tiles[i+1], tc)
		prev[a]++
		if tc[0] != prev[0] || tc[1] != prev[1] {
			t.Fatalf("tile %d not adjacent along axis %d", i+1, a)
		}
	}
	// Raw mode: no interior edges in the list.
	if len(route.Edges) != len(route.Axes) {
		t.Fatalf("raw route edges %d != axes %d", len(route.Edges), len(route.Axes))
	}
	// First tile contains the source point.
	if raw.Tl.TileID(src) != route.Tiles[0] {
		t.Fatal("route does not start at source tile")
	}
}

func TestGrid2DRoute(t *testing.T) {
	g := grid.New([]int{8, 8}, 3, 3)
	st := spacetime.New(g, 100)
	tl := tiling.New(st.Box, []int{3, 3, 3}, []int{0, 0, 0})
	sk := New(st, tl, Downscaled)
	// Interior capacity should be d+1 = 3.
	if got := sk.Cap(sk.InteriorEdgeID(0)); got != 3 {
		t.Fatalf("2-d interior cap = %v, want 3", got)
	}
	pk := ipp.NewDense(100, sk.Cap, sk.Universe())
	r := &grid.Request{Src: grid.Vec{0, 1}, Dst: grid.Vec{6, 5}, Arrival: 0, Deadline: grid.InfDeadline}
	src := st.SourcePoint(r)
	wLo, wHi := st.DestRay(r)
	var route Route
	if !sk.NewSession().LightestRouteInto(pk, src, r.Dst, wLo, wHi, 100, &route) {
		t.Fatal("no 2-d route")
	}
	if !pk.Offer(route.Edges, route.Cost) {
		t.Fatal("first 2-d offer should be accepted")
	}
}
