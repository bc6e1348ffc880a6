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
//     randomized algorithm, and over tiles of side 1 (SpaceTime) by the
//     dual certificate and the Theorem 13 algorithm: with unit tiles the
//     sketch graph is the space-time graph itself, and its Raw capacities
//     are c and B.
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
// back any number of query sessions (the streaming engine keeps one
// Session per engine; a batch run makes its own).
type Graph struct {
	ST   *spacetime.Graph
	Tl   *tiling.Tiling
	Mode Mode

	// axes is d+1 (number of lattice axes).
	axes     int
	faceArea []int // Π side[j], j≠axis
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
	return g
}

// SpaceTime returns the Raw sketch over tiles of side 1 and phase 0: the
// space-time graph st itself (Sec. 3.4 with unit tiles). Tile coordinates
// are lattice points, TBox is st.Box, and the capacities are c on the space
// axes and B on the w axis.
func SpaceTime(st *spacetime.Graph) *Graph {
	axes := st.G.D() + 1
	side := make([]int, axes)
	for i := range side {
		side[i] = 1
	}
	return New(st, tiling.New(st.Box, side, make([]int, axes)), Raw)
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
	srcTile []int // also the DP window's low corner
	dstTile []int
	winHi   []int
	probe   []int
	saved   []float64    // live weights under LightestRouteMasked's mask
	path    lattice.Path // reused by route extraction and chainRoute

	// Prepared-query geometry (prepareQuery): the destination ray on the w
	// axis, inclusive, in tile coordinates.
	rayLo, rayHi int
}

// NewSession creates a fresh query session over the graph.
func (g *Graph) NewSession() *Session {
	return &Session{
		g:       g,
		dp:      g.Tl.TBox.NewDP(),
		srcTile: make([]int, g.axes),
		dstTile: make([]int, g.axes),
		winHi:   make([]int, g.axes),
		probe:   make([]int, g.axes),
	}
}

// Universe returns the size of the sketch graph's ipp edge-id space:
// TBox.Size()·axes inter-tile edges, followed in Downscaled mode by
// TBox.Size() interior edges (Raw mode has none). It is the universe
// argument for ipp.NewDense; the resulting weight slice is laid out so the
// lightest-path DP can index it directly (lattice.DP.RunFlatBounded).
func (g *Graph) Universe() int {
	if g.Mode == Raw {
		return g.Tl.TBox.Size() * g.axes
	}
	return g.Tl.TBox.Size() * (g.axes + 1)
}

// nodeWeights returns the DP's node-weight slice for a weight universe xs:
// the interior-edge tail in Downscaled mode, nil in Raw mode. The head of xs
// is already the DP's edge layout, since AxisEdgeID(id, a) = id·axes+a.
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
	if g.Mode == Raw {
		return float64(g.RawCap(axis))
	}
	if interior {
		return float64(g.ST.G.D() + 1)
	}
	return 1
}

// RawCap returns the aggregated (pre-downscaling) capacity of an inter-tile
// edge along axis: c·faceArea for space axes, B·faceArea for the w axis
// (Sec. 3.4: "c·τ and B·Q" on a line).
func (g *Graph) RawCap(axis int) int {
	return g.ST.Cap(axis) * g.faceArea[axis]
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

// prepareQuery computes the weight-independent geometry of a lightest-route
// query: source/destination tiles, the destination ray on the w axis, and
// the DP window, all stored in the session. It reports false when no legal
// route can exist for purely geometric reasons (source off the tiling,
// destination behind source, empty w ray, tile budget exceeded), so a false
// here is a final verdict regardless of packer state.
//
//gridroute:hotpath
func (s *Session) prepareQuery(srcPoint []int, dst grid.Vec, wLo, wHi int, maxTiles int) bool {
	g := s.g
	d := g.ST.G.D()
	wa := d // the w axis index
	g.Tl.TileOf(srcPoint, s.srcTile)
	if !g.Tl.TBox.Contains(s.srcTile) {
		return false // source off the tiled lattice: an arrival before its start
	}

	// Destination tile coordinates: fixed per space axis, ranging on w.
	for i := 0; i < d; i++ {
		s.dstTile[i] = lattice.FloorDiv(dst[i]-g.Tl.Phase[i], g.Tl.Side[i])
		if s.dstTile[i] < s.srcTile[i] || s.dstTile[i] >= g.Tl.TBox.Hi[i] {
			return false // unreachable or off the tiling (cannot happen for feasible requests)
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

	// DP window: [srcTile .. dstTile] per space axis, [srcW .. dwHi] on w,
	// so the window is a sub-box of TBox whose low corner is the source
	// tile, and the destination ray lies inside it.
	for i := 0; i < d; i++ {
		s.winHi[i] = s.dstTile[i] + 1
	}
	s.winHi[wa] = dwHi + 1
	return true
}

// extractRoute minimizes the solved DP over the prepared destination ray and
// materializes the winning path into out. False means no ray tile costs
// less than bound under the solved weights (with bound = +Inf: every ray
// tile is unreachable).
//
//gridroute:hotpath
func (s *Session) extractRoute(bound float64, out *Route) bool {
	wa := s.g.ST.G.D()
	probe := s.probe
	copy(probe, s.dstTile)
	best, bestW := s.dp.MinCostRay(probe, wa, s.rayLo, s.rayHi)
	if best >= bound {
		return false
	}
	probe[wa] = bestW
	if !s.dp.PathInto(probe, &s.path) {
		return false
	}
	s.routeInto(&s.path, best, out)
	return true
}

// chainRoute answers a prepared query whose window is a chain — at most one
// axis of extent > 1, as when source and destination share a spatial tile —
// without the DP. chain reports whether the window is one; found and out are
// then exactly what RunFlatBounded and extractRoute would produce at bound:
//
//   - a chain holds one path from the source tile to each of its tiles;
//   - weights are never negative (a commit only grows them, and an outage
//     mask writes +Inf), so costs never fall along the chain, and
//     MinCostRay's strict < picks the ray's first tile, rayLo, or reports
//     no route when that tile costs bound or more;
//   - summing xs over the edge list left to right (interior, axis,
//     interior, …) repeats the DP's own order, (pc + edge) + node, so the
//     cost has the same bits; and a prefix that reaches bound, which the
//     bounded DP prunes, leaves the whole cost at bound or more.
//
//gridroute:hotpath
func (s *Session) chainRoute(xs []float64, bound float64, out *Route) (found, chain bool) {
	axis := -1
	for a, lo := range s.srcTile {
		if s.winHi[a]-lo > 1 {
			if axis >= 0 {
				return false, false
			}
			axis = a
		}
	}
	steps := 0 // a single-tile window
	if wa := s.g.ST.G.D(); axis == wa {
		steps = s.rayLo - s.srcTile[wa]
	} else if axis >= 0 {
		steps = s.dstTile[axis] - s.srcTile[axis]
	}
	p := &s.path
	p.Start = append(p.Start[:0], s.srcTile...)
	p.Axes = p.Axes[:0]
	for i := 0; i < steps; i++ {
		p.Axes = append(p.Axes, uint8(axis))
	}
	s.routeInto(p, 0, out)
	cost := 0.0
	for _, e := range out.Edges {
		cost += xs[e]
	}
	if cost >= bound {
		return false, true
	}
	out.Cost = cost
	return true, true
}

// LightestRouteInto finds the lightest sketch path for a request from the
// tile containing srcPoint to any tile containing a copy of the destination
// (spatial coordinates dst, w ∈ [wLo, wHi]), visiting at most maxTiles
// tiles, and writes it into out, reusing its slices. It reports false
// (leaving out unspecified) when no legal route exists. A warm (Session,
// Route) pair queries without allocating — the property the streaming
// engine's 0-alloc admit gate rests on.
//
// In Downscaled mode the cost includes the interior edge of every visited
// tile (the path s¹_in → … → sᴸ_out of Sec. 5.1).
//
//gridroute:hotpath
func (s *Session) LightestRouteInto(pk *ipp.Packer, srcPoint []int, dst grid.Vec, wLo, wHi int, maxTiles int, out *Route) bool {
	return s.lightestRoute(pk, srcPoint, dst, wLo, wHi, maxTiles, lattice.Inf, out)
}

// Offer runs one step of Algorithm 3 (Appendix E) for a request: it finds
// the lightest route lighter than 1, the accept threshold, and offers it to
// pk, or offers nil when there is none, so that pk counts the rejection. It
// reports whether pk accepted; out then holds the committed route.
//
// The search is bounded at 1. A request whose lightest route weighs ≥ 1 is
// rejected whether or not its exact weight is known, and the packer evolves
// the same way for "no route" and "too heavy"; so pruning the DP at the
// threshold (RunFlatBounded) changes nothing but the work done. On a
// saturated lattice most of the window lies beyond the bound and is never
// relaxed.
//
//gridroute:hotpath
func (s *Session) Offer(pk *ipp.Packer, srcPoint []int, dst grid.Vec, wLo, wHi int, maxTiles int, out *Route) bool {
	if !s.lightestRoute(pk, srcPoint, dst, wLo, wHi, maxTiles, 1, out) {
		pk.Offer(nil, 0)
		return false
	}
	return pk.Offer(out.Edges, out.Cost)
}

// lightestRoute is the query behind LightestRouteInto, LightestRouteMasked
// and Offer: it reports the lightest route only when it costs less than
// bound, and the DP prunes relaxations from tiles at or beyond bound.
//
//gridroute:hotpath
func (s *Session) lightestRoute(pk *ipp.Packer, srcPoint []int, dst grid.Vec, wLo, wHi int, maxTiles int, bound float64, out *Route) bool {
	if !s.prepareQuery(srcPoint, dst, wLo, wHi, maxTiles) {
		return false
	}
	xs := pk.Weights()
	if found, chain := s.chainRoute(xs, bound, out); chain {
		return found
	}
	s.dp.RunFlatBounded(s.srcTile, s.winHi, xs, s.g.nodeWeights(xs), bound)
	return s.extractRoute(bound, out)
}

// LightestRouteMasked is LightestRouteInto under a resource-outage mask: no
// route may traverse a blocked edge id. It saves the live weight at each
// blocked id, writes +Inf there in pk.Weights(), runs the unbounded query,
// and restores the saved weights in reverse order, so an id listed twice
// also ends at its live value. A found route costs less than +Inf, so it
// crosses no blocked edge and its cost is live.
//
//gridroute:hotpath
func (s *Session) LightestRouteMasked(pk *ipp.Packer, srcPoint []int, dst grid.Vec, wLo, wHi int, maxTiles int, blocked []ipp.EdgeID, out *Route) bool {
	xs := pk.Weights()
	s.saved = s.saved[:0]
	for _, e := range blocked {
		s.saved = append(s.saved, xs[e])
		xs[e] = math.Inf(1)
	}
	found := s.lightestRoute(pk, srcPoint, dst, wLo, wHi, maxTiles, lattice.Inf, out)
	for i := len(blocked) - 1; i >= 0; i-- {
		xs[blocked[i]] = s.saved[i]
	}
	return found
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
