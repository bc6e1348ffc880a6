// Package sketch builds the sketch graph over the tiles of an untilted
// space-time lattice (Sec. 3.4 of Even–Medina) and provides the
// lightest-path oracle that reduces packet requests to online integral path
// packing (Sec. 5.1).
//
// Two capacity modes exist:
//
//   - Downscaled ({1, d+1, ∞}, Sec. 5.1 and Sec. 6): inter-tile edges get
//     capacity 1 and the interior edge of every split tile gets capacity d+1
//     (2 on a line). Used by the deterministic algorithm; the interior edges
//     are folded into the shortest-path DP as node weights, so the split is
//     never materialized.
//   - Raw (Sec. 7.2): a space-axis edge gets capacity c·(face area), the w
//     edge gets B·(face area); there are no interior edges. Used by the
//     randomized algorithm.
//
// Sink nodes (one per destination, or per request when deadlines are
// present) have infinite capacity, so their edges never acquire weight and
// are simply omitted: the oracle minimizes over the destination tiles.
package sketch

import (
	"math"

	"gridroute/internal/grid"
	"gridroute/internal/ipp"
	"gridroute/internal/lattice"
	"gridroute/internal/spacetime"
	"gridroute/internal/tiling"
)

// Mode selects the capacity assignment.
type Mode int

const (
	// Downscaled is the {1, d+1, ∞} assignment of the deterministic
	// algorithm.
	Downscaled Mode = iota
	// Raw keeps the aggregated tile-face capacities (randomized algorithm).
	Raw
)

// Graph is a sketch graph over the tiles of a space-time lattice. The Graph
// itself holds only immutable topology (tiling, capacities, edge-id scheme);
// all per-query mutable state lives in Sessions, so a long-lived Graph can
// back any number of query sessions (the streaming engine keeps one warm
// Session per engine, batch callers use the Graph's own default session).
type Graph struct {
	ST   *spacetime.Graph
	Tl   *tiling.Tiling
	Mode Mode

	// axes is d+1 (number of lattice axes).
	axes     int
	faceArea []int // Π side[j], j≠axis

	// def is the Graph's default session, backing the LightestRoute
	// convenience method (not safe for concurrent use, like before).
	def *Session
}

// New builds a sketch graph for st under tiling tl.
func New(st *spacetime.Graph, tl *tiling.Tiling, mode Mode) *Graph {
	axes := st.G.D() + 1
	g := &Graph{
		ST: st, Tl: tl, Mode: mode,
		axes: axes,
	}
	g.faceArea = make([]int, axes)
	for a := 0; a < axes; a++ {
		area := 1
		for j := 0; j < axes; j++ {
			if j != a {
				area *= tl.Side[j]
			}
		}
		g.faceArea[a] = area
	}
	g.def = g.NewSession()
	return g
}

// Session holds the mutable state of lightest-route queries against one
// persistent Graph: the lattice DP and the coordinate scratch buffers. A
// Session is reusable across any number of queries and grows its buffers
// once; it is not safe for concurrent use, but distinct Sessions of the same
// Graph are independent.
type Session struct {
	g  *Graph
	dp *lattice.DP

	// scratch buffers
	srcTile []int
	dstTile []int
	winLo   []int
	winHi   []int
	probe   []int
	snapCur []int        // snapshotWindow row odometer
	path    lattice.Path // reused by LightestRouteInto

	// Prepared-query geometry (prepareQuery): the destination ray on the w
	// axis, inclusive, in tile coordinates.
	rayLo, rayHi int

	// Warm-start cache: the DP solution of the last query answers the next
	// one outright when the packer, window and source match and no path has
	// committed since (an unchanged ipp.Version means unchanged weights).
	// Anything else runs the full RunFlat: in Downscaled mode every accepted
	// route pays the interior edge of its source tile, so a commit changes
	// every cost of a window that shares its source.
	warm      bool
	lastPk    *ipp.Packer
	lastVer   uint64
	lastWinLo []int
	lastWinHi []int
	lastSrc   []int
	lastValid bool
}

// NewSession creates a fresh query session over the graph.
func (g *Graph) NewSession() *Session {
	return &Session{
		g:       g,
		dp:      g.Tl.TBox.NewDP(),
		srcTile: make([]int, g.axes),
		dstTile: make([]int, g.axes),
		winLo:   make([]int, g.axes),
		winHi:   make([]int, g.axes),
		probe:   make([]int, g.axes),
		snapCur: make([]int, g.axes),

		warm:      true,
		lastWinLo: make([]int, g.axes),
		lastWinHi: make([]int, g.axes),
		lastSrc:   make([]int, g.axes),
	}
}

// SetWarmStart toggles DP reuse between successive queries (default on):
// a warm session skips the DP when the packer version, window and source
// are those of its last query. Warm and cold sessions answer every query
// identically — a skipped run would recompute the same solution — so this
// exists for benchmarks, parity tests, and as an escape hatch.
func (s *Session) SetWarmStart(on bool) {
	s.warm = on
	s.lastValid = false
}

func equalInts(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// warmHit reports whether the cached DP solution already answers the
// current query (window/source already in s.winLo/s.winHi/s.srcTile): same
// packer, window and source as the last query, and no commit since.
//
//gridroute:hotpath
func (s *Session) warmHit(pk *ipp.Packer) bool {
	return s.warm && s.lastValid && pk == s.lastPk && pk.Version() == s.lastVer &&
		equalInts(s.lastWinLo, s.winLo) && equalInts(s.lastWinHi, s.winHi) &&
		equalInts(s.lastSrc, s.srcTile)
}

// Universe returns the size of the sketch graph's ipp edge-id space:
// TBox.Size()·axes inter-tile edges followed by TBox.Size() interior edges.
// It is the universe argument for ipp.NewDense; the resulting weight slice
// is laid out so the lightest-path DP can index it directly (RunFlat).
func (g *Graph) Universe() int {
	return g.Tl.TBox.Size() * (g.axes + 1)
}

// nodeWeights returns RunFlat's node-weight slice for a weight universe xs:
// the interior-edge tail in Downscaled mode, nil in Raw mode. The head of xs
// is already RunFlat's edge layout, since AxisEdgeID(id, a) = id·axes+a.
//
//gridroute:hotpath
func (g *Graph) nodeWeights(xs []float64) []float64 {
	if g.Mode != Downscaled {
		return nil
	}
	return xs[g.Tl.TBox.Size()*g.axes:]
}

// AxisEdgeID returns the ipp edge id of the inter-tile edge leaving tileID
// along axis.
func (g *Graph) AxisEdgeID(tileID, axis int) ipp.EdgeID {
	return ipp.EdgeID(tileID*g.axes + axis)
}

// InteriorEdgeID returns the ipp edge id of the interior edge of a split
// tile (Downscaled mode only).
func (g *Graph) InteriorEdgeID(tileID int) ipp.EdgeID {
	return ipp.EdgeID(g.Tl.TBox.Size()*g.axes + tileID)
}

// DecodeEdge inverts the edge id scheme: it returns (tileID, axis, interior).
func (g *Graph) DecodeEdge(e ipp.EdgeID) (tileID, axis int, interior bool) {
	n := int(e)
	base := g.Tl.TBox.Size() * g.axes
	if n >= base {
		return n - base, -1, true
	}
	return n / g.axes, n % g.axes, false
}

// Cap returns the capacity of an edge under the graph's mode. It is the
// CapFunc handed to the ipp packer.
func (g *Graph) Cap(e ipp.EdgeID) float64 {
	_, axis, interior := g.DecodeEdge(e)
	switch g.Mode {
	case Downscaled:
		if interior {
			return float64(g.ST.G.D() + 1)
		}
		return 1
	default: // Raw
		if interior {
			return math.Inf(1)
		}
		return float64(g.ST.Cap(axis) * g.faceArea[axis])
	}
}

// RawCap returns the aggregated (pre-downscaling) capacity of an inter-tile
// edge along axis: c·faceArea for space axes, B·faceArea for the w axis
// (Sec. 3.4: "c·τ and B·Q" on a line).
func (g *Graph) RawCap(axis int) int {
	return g.ST.Cap(axis) * g.faceArea[axis]
}

// RawNodeCap returns the paper's tile node capacity
// (d+1)·k^{d+1}·(B + d·c) — 2·k²·(B+c) on a line.
func (g *Graph) RawNodeCap() int {
	d := g.ST.G.D()
	vol := 1
	for _, s := range g.Tl.Side {
		vol *= s
	}
	return (d + 1) * vol * (g.ST.G.B + d*g.ST.G.C)
}

// Route is a sketch path: a sequence of tiles, the axes stepped between
// them, and the flat ipp edge list (including interior edges in Downscaled
// mode) with its current total weight.
type Route struct {
	Tiles []int // dense tile ids, len = len(Axes)+1
	Axes  []uint8
	Edges []ipp.EdgeID
	Cost  float64
}

// NumTiles returns the number of tiles traversed.
func (r *Route) NumTiles() int { return len(r.Tiles) }

// LightestRoute finds the lightest sketch path on the Graph's default
// session. It is a convenience for single-threaded batch callers; see
// Session.LightestRoute.
func (g *Graph) LightestRoute(pk *ipp.Packer, srcPoint []int, dst grid.Vec, wLo, wHi int, maxTiles int) *Route {
	return g.def.LightestRoute(pk, srcPoint, dst, wLo, wHi, maxTiles)
}

// LightestRoute finds the lightest sketch path for a request from the tile
// containing srcPoint to any tile containing a copy of the destination
// (spatial coordinates dst, w ∈ [wLo, wHi]), visiting at most maxTiles
// tiles. It returns nil when no legal route exists.
//
// In Downscaled mode the cost includes the interior edge of every visited
// tile (the path s¹_in → … → sᴸ_out of Sec. 5.1).
func (s *Session) LightestRoute(pk *ipp.Packer, srcPoint []int, dst grid.Vec, wLo, wHi int, maxTiles int) *Route {
	r := &Route{}
	if !s.LightestRouteInto(pk, srcPoint, dst, wLo, wHi, maxTiles, r) {
		return nil
	}
	return r
}

// prepareQuery computes the weight-independent geometry of a lightest-route
// query: source/destination tiles, the destination ray on the w axis, and
// the DP window, all stored in the session. It reports false when no legal
// route can exist for purely geometric reasons (destination behind source,
// empty w ray, tile budget exceeded), so a false here is a final verdict
// regardless of packer state.
//
//gridroute:hotpath
func (s *Session) prepareQuery(srcPoint []int, dst grid.Vec, wLo, wHi int, maxTiles int) bool {
	g := s.g
	d := g.ST.G.D()
	wa := d // the w axis index
	g.Tl.TileOf(srcPoint, s.srcTile)

	// Destination tile coordinates: fixed per space axis, ranging on w.
	for i := 0; i < d; i++ {
		s.dstTile[i] = lattice.FloorDiv(dst[i]-g.Tl.Phase[i], g.Tl.Side[i])
		if s.dstTile[i] < s.srcTile[i] {
			return false // unreachable (cannot happen for feasible requests)
		}
	}
	dwLo := lattice.FloorDiv(wLo-g.Tl.Phase[wa], g.Tl.Side[wa])
	dwHi := lattice.FloorDiv(wHi-g.Tl.Phase[wa], g.Tl.Side[wa])
	if dwLo < s.srcTile[wa] {
		dwLo = s.srcTile[wa]
	}
	if dwHi > g.Tl.TBox.Hi[wa]-1 {
		dwHi = g.Tl.TBox.Hi[wa] - 1
	}
	if dwHi < dwLo {
		return false
	}

	// Tile-count bound: L tiles means L−1 = L1 distance steps; clip the w
	// extent so that spatialDist + wSteps ≤ maxTiles−1.
	spatial := 0
	for i := 0; i < d; i++ {
		spatial += s.dstTile[i] - s.srcTile[i]
	}
	if budget := maxTiles - 1 - spatial; budget < 0 {
		return false
	} else if dwHi > s.srcTile[wa]+budget {
		dwHi = s.srcTile[wa] + budget
	}
	if dwHi < dwLo {
		return false
	}
	s.rayLo, s.rayHi = dwLo, dwHi

	// DP window: [srcTile .. dstTile] per space axis, [srcW .. dwHi] on w.
	for i := 0; i < d; i++ {
		s.winLo[i] = s.srcTile[i]
		s.winHi[i] = s.dstTile[i] + 1
	}
	s.winLo[wa] = s.srcTile[wa]
	s.winHi[wa] = dwHi + 1
	return true
}

// extractRoute minimizes the solved DP over the prepared destination ray and
// materializes the winning path into out. False means every ray tile is
// unreachable under the solved weights.
//
//gridroute:hotpath
func (s *Session) extractRoute(out *Route) bool {
	wa := s.g.ST.G.D()
	probe := s.probe
	copy(probe, s.dstTile)
	best, bestW := s.dp.MinCostRay(probe, wa, s.rayLo, s.rayHi)
	if math.IsInf(best, 1) {
		return false
	}
	probe[wa] = bestW
	if !s.dp.PathInto(probe, &s.path) {
		return false
	}
	s.routeInto(&s.path, best, out)
	return true
}

// LightestRouteInto is LightestRoute writing into a caller-provided Route,
// reusing its slices. It reports false (leaving out unspecified) when no
// legal route exists. A warm (Session, Route) pair queries without
// allocating — the property the streaming engine's 0-alloc admit gate rests
// on.
//
//gridroute:hotpath
func (s *Session) LightestRouteInto(pk *ipp.Packer, srcPoint []int, dst grid.Vec, wLo, wHi int, maxTiles int, out *Route) bool {
	if !s.prepareQuery(srcPoint, dst, wLo, wHi, maxTiles) {
		return false
	}
	if !s.warmHit(pk) {
		xs := pk.Weights()
		s.dp.RunFlat(s.winLo, s.winHi, s.srcTile, xs, s.g.nodeWeights(xs))
	}
	if s.warm {
		s.lastPk, s.lastVer, s.lastValid = pk, pk.Version(), true
		copy(s.lastWinLo, s.winLo)
		copy(s.lastWinHi, s.winHi)
		copy(s.lastSrc, s.srcTile)
	}
	return s.extractRoute(out)
}

// snapshotWindow copies the weight rows covered by the prepared window from
// the packer weight slice `from` into the caller's snapshot buffer
// `into` (both laid out over the full edge universe, Universe() long). Only
// the window's rows are touched, so a snapshot costs O(window), not
// O(universe). The axis-edge weights of a contiguous last-axis run of tiles
// are themselves contiguous (AxisEdgeID stride), as are the interior-edge
// weights in Downscaled mode, so each row is two copy calls.
//
//gridroute:hotpath
func (s *Session) snapshotWindow(from, into []float64) {
	g := s.g
	tb := g.Tl.TBox
	axes := g.axes
	last := axes - 1
	n := s.winHi[last] - s.winLo[last]
	base := tb.Size() * axes
	cur := s.snapCur
	copy(cur, s.winLo)
	for {
		start := tb.Index(cur)
		copy(into[start*axes:(start+n)*axes], from[start*axes:(start+n)*axes])
		if g.Mode == Downscaled {
			copy(into[base+start:base+start+n], from[base+start:base+start+n])
		}
		a := last - 1
		for ; a >= 0; a-- {
			cur[a]++
			if cur[a] < s.winHi[a] {
				break
			}
			cur[a] = s.winLo[a]
		}
		if a < 0 {
			break
		}
	}
}

// solveSnapshot runs the lightest-route DP for the prepared query over a
// snapshot weight slice (laid out like the packer's weights) and
// extracts the route into out. The session's packer-keyed warm cache is
// invalidated: the DP state now reflects snapshot, not live, weights.
//
//gridroute:hotpath
func (s *Session) solveSnapshot(xs []float64, out *Route) bool {
	s.dp.RunFlat(s.winLo, s.winHi, s.srcTile, xs, s.g.nodeWeights(xs))
	s.lastValid = false
	return s.extractRoute(out)
}

// LightestRouteMasked is LightestRouteInto under a resource-outage mask: the
// query is solved over a snapshot of the packer weights in which every
// blocked edge id costs +Inf, so no route can traverse a failed resource.
// Reported costs remain true live costs — a masked edge can only appear on an
// infinite-cost route, which extraction rejects. buf must be Universe() long;
// only the prepared window's rows are (re)written per call, and entries
// outside the window may hold stale values from earlier calls — the DP never
// reads outside the window, so they are harmless.
func (s *Session) LightestRouteMasked(pk *ipp.Packer, srcPoint []int, dst grid.Vec, wLo, wHi int, maxTiles int, blocked []ipp.EdgeID, buf []float64, out *Route) bool {
	if !s.prepareQuery(srcPoint, dst, wLo, wHi, maxTiles) {
		return false
	}
	s.snapshotWindow(pk.Weights(), buf)
	for _, e := range blocked {
		buf[e] = math.Inf(1)
	}
	return s.solveSnapshot(buf, out)
}

// routeInto materializes a DP path as a sketch Route, reusing out's slices.
//
//gridroute:hotpath
func (s *Session) routeInto(p *lattice.Path, cost float64, out *Route) {
	g := s.g
	tiles := out.Tiles[:0]
	axes := append(out.Axes[:0], p.Axes...)
	edges := out.Edges[:0]
	cur := s.probe
	copy(cur, p.Start)
	id := g.Tl.TBox.Index(cur)
	tiles = append(tiles, id)
	if g.Mode == Downscaled {
		edges = append(edges, g.InteriorEdgeID(id))
	}
	for _, a := range p.Axes {
		edges = append(edges, g.AxisEdgeID(id, int(a)))
		cur[a]++
		id = g.Tl.TBox.Index(cur)
		tiles = append(tiles, id)
		if g.Mode == Downscaled {
			edges = append(edges, g.InteriorEdgeID(id))
		}
	}
	out.Tiles, out.Axes, out.Edges, out.Cost = tiles, axes, edges, cost
}

// TileCoords returns the tile coordinates of a dense tile id.
func (g *Graph) TileCoords(tileID int, out []int) []int {
	return g.Tl.TBox.Point(tileID, out)
}
