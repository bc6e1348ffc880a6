// Package detroute implements the deterministic algorithm's detailed routing
// (Sec. 5.2 and Sec. 6 of Even–Medina): translating sketch paths over tiles
// into paths in the untilted space-time lattice, adaptively and on-the-fly.
//
// The detailed path of a request traverses exactly the tiles of its sketch
// path and bends only where the sketch path bends. Routing is partitioned
// into three parts, each with one reserved unit of capacity (a "track") on
// every lattice edge — the reason the algorithm requires B, c ≥ 3:
//
//	track 1 — special (first and last) segments, resolved by online interval
//	          packing per lattice line (the GLL82 simulation of Sec. 5.2.1);
//	track 2 — internal segments, resolved by knock-knee bends with precedence
//	          to straight traffic (Sec. 5.2.3; d-dimensional rules of Sec. 6);
//	track 3 — routing inside the last tile, per-line interval packing with
//	          nearest-destination preemption (Sec. 5.2.4).
//
// The implementation sweeps lattice points in increasing real time
// t = w + Σx, which is both a topological order of the box DAG and the
// actual simulation clock, so every preemption decision made here is
// realizable by the distributed online protocol the paper describes:
// conflicting packets are always co-located at a node when the conflict is
// decided.
//
// The sweep relies on one invariant: every packet in flight at step t lies
// on the time slice t = w + Σx. A packet is injected at its arrival time, and
// every move, a transmission or a hold, adds 1 to w + Σx. So two packets in
// flight share a lattice node exactly when they share a grid node, and each
// step groups its packets by grid node id. Each packet keeps its grid node
// and its tile current as it moves: a move adds one stride to each and
// compares the moved coordinate with the next tile boundary on that axis.
package detroute

import (
	"sort"

	"gridroute/internal/dense"
	"gridroute/internal/grid"
	"gridroute/internal/lattice"
	"gridroute/internal/sketch"
	"gridroute/internal/spacetime"
)

// Part identifies the detailed-routing part a packet was in.
type Part int

const (
	// PartFirst is the first special segment (track 1).
	PartFirst Part = iota
	// PartInternal covers internal segments (track 2).
	PartInternal
	// PartLast is the last special segment (track 1).
	PartLast
	// PartLastTile is routing inside the last tile (track 3).
	PartLastTile
)

func (p Part) String() string {
	switch p {
	case PartFirst:
		return "first-segment"
	case PartInternal:
		return "internal"
	case PartLast:
		return "last-segment"
	default:
		return "last-tile"
	}
}

// Admitted is a request together with the sketch path assigned by ipp.
type Admitted struct {
	Req   *grid.Request
	Route *sketch.Route
}

// Outcome reports the detailed-routing result for one admitted request.
type Outcome struct {
	Delivered   bool
	DeliveredAt int64
	OnTime      bool
	// DroppedIn is the part during which the packet was preempted
	// (meaningful when !Delivered).
	DroppedIn Part
	// ReachedLastTile marks membership in the paper's set ipp′ (Prop. 8):
	// not preempted before the entry of the last tile.
	ReachedLastTile bool
	// Path is the detailed path walked (full path when delivered, prefix
	// when dropped).
	Path *lattice.Path
}

// Stats aggregates a routing run (the Prop. 8/9 loss decomposition).
type Stats struct {
	Injected        int
	Delivered       int
	ReachedLastTile int
	DroppedBy       [4]int
	// Anomalies counts events the analysis proves impossible on a line
	// (overruns, packets unable to move, horizon overflow). Tests assert it
	// stays 0 for d = 1 workloads within a generous horizon.
	Anomalies int
}

// MaxAxes is the largest number of space-time lattice axes (grid dimension
// plus one) the router supports: its per-step grouping table has one slot
// per travel axis.
const MaxAxes = 8

// Router runs detailed routing over one space-time lattice.
type Router struct {
	ST *spacetime.Graph
	SK *sketch.Graph

	// Scratch reused across nodes and steps.
	in       []*pkt
	outClaim []*pkt
	byAxis   [MaxAxes][]*pkt
	tileBuf  []int
	tcBuf    []int
	orgBuf   []int
}

// New creates a detailed router for the deterministic algorithm.
func New(st *spacetime.Graph, sk *sketch.Graph) *Router {
	return &Router{ST: st, SK: sk}
}

type phase int

const (
	phFirst phase = iota
	phInternal
	phLast
	phLastTile
	phDone
	phDropped
)

type pkt struct {
	idx   int
	req   *grid.Request
	route *sketch.Route

	phase phase
	dir   int // current travel axis
	turn  int // pending knock-knee turn target axis (-1 none)
	pos   []int
	// gnode is the grid node id of pos and tile the dense id of the tile
	// that holds pos; next[a] is the coordinate along axis a where the next
	// tile begins. A move keeps all three current.
	gnode int
	tile  int
	next  []int
	// arrivedVia is the axis of the last move (-1 right after injection).
	arrivedVia int
	// pending is the axis claimed for the current step (-1: not yet).
	pending int

	routeIdx  int // index into route.Tiles of the current tile
	firstBend int // tile index of the first bend (-1 if none)
	lastBend  int // tile index of the last bend (-1 if none)

	// endCoord is the right endpoint of the current track-1/track-3
	// interval along dir, for GLL82 preemption comparisons.
	endCoord int

	start []int
	moves []uint8

	reachedLast bool
	droppedIn   Part
	deliveredAt int64
}

// path hands the walked path over to the caller. The packet dies with Run,
// so its slices are returned, not copied; the full-slice expressions keep an
// append by the caller from writing into spare capacity.
func (p *pkt) path() lattice.Path {
	return lattice.Path{Start: p.start[:len(p.start):len(p.start)], Axes: p.moves[:len(p.moves):len(p.moves)]}
}

func (p *pkt) part() Part {
	switch p.phase {
	case phFirst:
		return PartFirst
	case phInternal:
		return PartInternal
	case phLast:
		return PartLast
	default:
		return PartLastTile
	}
}

// desired returns the axis the packet wants next (pending turns first).
func (p *pkt) desired() int {
	if p.turn >= 0 {
		return p.turn
	}
	return p.dir
}

// Run performs detailed routing for all admitted requests and returns
// per-request outcomes plus aggregate stats.
func (rt *Router) Run(admitted []Admitted) ([]Outcome, Stats) {
	var stats Stats
	stats.Injected = len(admitted)
	n := len(admitted)
	g := rt.ST.G
	d := g.D()
	axes := d + 1
	box := rt.ST.Box
	tl := rt.SK.Tl
	if len(rt.tileBuf) < axes {
		rt.tileBuf = make([]int, axes)
		rt.tcBuf = make([]int, axes)
		rt.orgBuf = make([]int, axes)
	}

	// Per-axis steps of a packet's grouping key (a row-major grid node id;
	// a hold stays at its node) and of its tile id, and the tile sides.
	var gstride, tstride, side [MaxAxes]int
	for a, s := d-1, 1; a >= 0; a-- {
		gstride[a] = s
		s *= g.Dims[a]
	}
	// A route of T tiles walks at most Σ(side−1) moves inside each tile and
	// one move out of it, so T·span bounds its moves.
	span := 1
	for a := 0; a < axes; a++ {
		tstride[a] = tl.TBox.Stride(a)
		side[a] = tl.Side[a]
		span += side[a] - 1
	}
	total := 0
	for i := range admitted {
		total += len(admitted[i].Route.Tiles) * span
	}

	// Each packet's coordinates and moves are cut from per-run slices.
	coords := make([]int, 3*n*axes)
	moves := make([]uint8, total)
	all := make([]*pkt, n)
	recs := make([]pkt, n)
	for i := range admitted {
		a := &admitted[i]
		p := &recs[i]
		*p = pkt{
			idx: i, req: a.Req, route: a.Route,
			turn: -1, arrivedVia: -1, pending: -1,
			firstBend: -1, lastBend: -1,
		}
		c := coords[3*i*axes : 3*(i+1)*axes]
		p.pos = c[:axes:axes]
		p.start = c[axes : 2*axes : 2*axes]
		p.next = c[2*axes:]
		rt.ST.ToLattice(a.Req.Src, a.Req.Arrival, p.pos)
		copy(p.start, p.pos)
		for x := 0; x < d; x++ {
			p.gnode += p.pos[x] * gstride[x]
		}
		tc := tl.TileOf(p.pos, rt.tileBuf)
		p.tile = tl.TBox.Index(tc)
		for x, o := range tl.Origin(tc, rt.orgBuf) {
			p.next[x] = o + side[x]
		}
		m := len(a.Route.Tiles) * span
		p.moves = moves[:0:m]
		moves = moves[m:]
		for j := 1; j < len(a.Route.Axes); j++ {
			if a.Route.Axes[j] != a.Route.Axes[j-1] {
				if p.firstBend < 0 {
					p.firstBend = j
				}
				p.lastBend = j
			}
		}
		if len(a.Route.Axes) > 0 {
			p.dir = int(a.Route.Axes[0])
		}
		// The first segment's interval end is fixed by the route and its
		// first axis; arrive only replaces it when the packet leaves
		// track 1's first segment.
		p.endCoord = rt.firstEndpoint(p)
		all[i] = p
	}

	// Injection order: packets by arrival time (same-time packets keep their
	// admission order), consumed by a cursor in the time sweep. Admission
	// preserves the scenario.Generate arrival-order invariant, so admitted
	// requests arrive here already sorted — verify with one linear pass and
	// only fall back to a stable sort for hand-built unsorted inputs.
	arrOrder := all
	for i := 1; i < len(all); i++ {
		if all[i].req.Arrival < all[i-1].req.Arrival {
			arrOrder = make([]*pkt, len(all))
			copy(arrOrder, all)
			sort.SliceStable(arrOrder, func(a, b int) bool {
				return arrOrder[a].req.Arrival < arrOrder[b].req.Arrival
			})
			break
		}
	}
	var minT int64
	if len(arrOrder) > 0 {
		minT = arrOrder[0].req.Arrival
	}
	inCursor := 0

	// Hard stop: the largest reachable time in the box.
	endT := int64(box.Hi[axes-1] - 1)
	for a := 0; a < d; a++ {
		endT += int64(box.Hi[a] - 1)
	}

	drop := func(p *pkt, part Part, anomaly bool) {
		p.phase = phDropped
		p.droppedIn = part
		stats.DroppedBy[part]++
		if anomaly {
			stats.Anomalies++
		}
	}

	active := make([]*pkt, 0, n)
	// Per-step node grouping uses epoch-stamped buckets over the grid's
	// node ids: no hashing per packet and no per-step map churn. Bucket
	// chains preserve active order and keys come out in first-seen order,
	// so grouping is deterministic. The first Reset sizes the item chain
	// for every packet at once.
	var groups dense.Buckets
	groups.Reset(g.N(), n)
	groupBuf := make([]*pkt, 0, 16)

	for t := minT; t <= endT; t++ {
		for inCursor < len(arrOrder) && arrOrder[inCursor].req.Arrival == t {
			p := arrOrder[inCursor]
			inCursor++
			if rt.arrive(p, drop) {
				active = append(active, p)
			}
		}
		if len(active) == 0 {
			if inCursor == len(arrOrder) {
				break
			}
			// Nothing in flight: skip to the next arrival.
			t = arrOrder[inCursor].req.Arrival - 1
			continue
		}

		groups.Reset(g.N(), len(active))
		for i, p := range active {
			p.pending = -1
			groups.Put(p.gnode, i)
		}
		for _, key := range groups.Keys() {
			groupBuf = groupBuf[:0]
			for it := groups.First(int(key)); it >= 0; it = groups.Next(it) {
				groupBuf = append(groupBuf, active[it])
			}
			rt.resolveNode(groupBuf, drop)
		}

		next := active[:0]
		for _, p := range active {
			if p.phase == phDone || p.phase == phDropped {
				continue
			}
			if p.pending < 0 {
				drop(p, p.part(), true) // could not move: impossible per analysis
				continue
			}
			a := p.pending
			p.pending = -1
			if p.pos[a]+1 >= box.Hi[a] {
				drop(p, p.part(), true) // fell off the box/horizon
				continue
			}
			p.pos[a]++
			p.gnode += gstride[a]
			if p.pos[a] == p.next[a] {
				p.tile += tstride[a]
				p.next[a] += side[a]
			}
			p.moves = append(p.moves, uint8(a))
			p.arrivedVia = a
			if rt.arrive(p, drop) {
				next = append(next, p)
			}
		}
		active = next
	}
	for _, p := range active {
		if p.phase != phDone && p.phase != phDropped {
			drop(p, p.part(), true)
		}
	}

	outs := make([]Outcome, n)
	paths := make([]lattice.Path, n)
	for i, p := range all {
		o := &outs[i]
		o.ReachedLastTile = p.reachedLast
		paths[i] = p.path()
		o.Path = &paths[i]
		if p.phase == phDone {
			o.Delivered = true
			o.DeliveredAt = p.deliveredAt
			o.OnTime = p.req.Deadline == grid.InfDeadline || p.deliveredAt <= p.req.Deadline
			stats.Delivered++
		} else {
			o.DroppedIn = p.droppedIn
		}
		if p.reachedLast {
			stats.ReachedLastTile++
		}
	}
	return outs, stats
}

// arrive processes a packet that just landed on p.pos (or was injected).
// It returns false when the packet left the system (delivered or dropped).
func (rt *Router) arrive(p *pkt, drop func(*pkt, Part, bool)) bool {
	tiles := p.route.Tiles
	cur := p.tile

	// Advance along the tile sequence; leaving it is an overrun.
	if p.routeIdx+1 < len(tiles) && cur == tiles[p.routeIdx+1] {
		p.routeIdx++
	} else if cur != tiles[p.routeIdx] {
		drop(p, p.part(), true)
		return false
	}

	lastIdx := len(tiles) - 1

	// Entering (or starting in) the last tile.
	if p.phase != phLastTile && p.routeIdx == lastIdx {
		p.phase = phLastTile
		p.reachedLast = true
	}

	if p.phase == phLastTile {
		if rt.atDestination(p) {
			p.phase = phDone
			p.deliveredAt = spacetime.TimeOf(p.pos)
			return false
		}
		a := rt.lastTileAxis(p)
		if a < 0 {
			// Overshot the destination (possible for d ≥ 2; a last-tile
			// loss accounted by Prop. 36, not an anomaly).
			drop(p, PartLastTile, false)
			return false
		}
		p.dir = a
		p.turn = -1
		p.endCoord = p.req.Dst[a]
		return true
	}

	switch p.phase {
	case phFirst:
		if p.firstBend >= 0 && p.routeIdx == p.firstBend {
			if p.firstBend == p.lastBend {
				// Exactly two segments: the turn into the last special
				// segment happens at the entry side of the bend tile
				// (Sec. 5.2.2: a last segment "begins in the entry side of
				// s1 that is reached by the previous segment").
				p.phase = phLast
				p.dir = int(p.route.Axes[p.firstBend])
				p.turn = -1
				p.endCoord = rt.entryBoundary(p, lastIdx, p.dir)
			} else if p.turn < 0 {
				// Three or more segments: adaptive knock-knee turn inside
				// this tile (track 1 → track 2).
				p.turn = int(p.route.Axes[p.firstBend])
			}
		}
	case phInternal:
		if p.routeIdx == p.lastBend {
			// Final bend: turn at the entry point into the last segment.
			p.phase = phLast
			p.dir = int(p.route.Axes[p.lastBend])
			p.turn = -1
			p.endCoord = rt.entryBoundary(p, lastIdx, p.dir)
		} else if p.routeIdx < len(p.route.Axes) && int(p.route.Axes[p.routeIdx]) != p.dir && p.turn < 0 {
			p.turn = int(p.route.Axes[p.routeIdx])
		}
	}
	return true
}

// entryBoundary returns the coordinate along axis of the lower side of the
// route tile with index tileIdx: where a straight run along axis enters it.
func (rt *Router) entryBoundary(p *pkt, tileIdx, axis int) int {
	tc := rt.SK.TileCoords(p.route.Tiles[tileIdx], rt.tcBuf)
	org := rt.SK.Tl.Origin(tc, rt.orgBuf)
	return org[axis]
}

// firstEndpoint computes the right endpoint of the first-segment interval:
// the entry boundary of the tile where the segment ends, plus a full side
// when the turn is adaptive (the turn may happen anywhere inside the bend
// tile — the comparison the paper makes is "ends inside s" vs "ends beyond
// s").
func (rt *Router) firstEndpoint(p *pkt) int {
	endTile := len(p.route.Tiles) - 1
	adaptive := false
	if p.firstBend >= 0 {
		endTile = p.firstBend
		adaptive = p.firstBend != p.lastBend
	}
	b := rt.entryBoundary(p, endTile, p.dir)
	if adaptive {
		b += rt.SK.Tl.Side[p.dir]
	}
	return b
}

func (rt *Router) atDestination(p *pkt) bool {
	for a := 0; a < rt.ST.G.D(); a++ {
		if p.pos[a] != p.req.Dst[a] {
			return false
		}
	}
	return true
}

// lastTileAxis picks the next axis inside the last tile (dimension order);
// -1 when the destination is unreachable (overshoot).
func (rt *Router) lastTileAxis(p *pkt) int {
	for a := 0; a < rt.ST.G.D(); a++ {
		if p.pos[a] < p.req.Dst[a] {
			return a
		}
		if p.pos[a] > p.req.Dst[a] {
			return -1
		}
	}
	return -1
}

// resolveNode decides, for every packet currently at one lattice node, which
// outgoing edge (and track) it takes, applying the three per-track rules.
func (rt *Router) resolveNode(pkts []*pkt, drop func(*pkt, Part, bool)) {
	axes := rt.ST.G.D() + 1

	// Fast path: a lone packet at a node meets no contention, so every rule
	// below degenerates to "advance along the desired axis" (for an internal
	// packet or a turning first-segment packet, committing a pending bend).
	if len(pkts) == 1 {
		p := pkts[0]
		switch {
		case p.phase == phInternal:
			if p.turn >= 0 {
				p.pending = p.turn
				p.dir, p.turn = p.turn, -1
			} else {
				p.pending = p.dir
			}
		case p.phase == phFirst && p.turn >= 0:
			p.pending = p.turn
			p.phase = phInternal
			p.dir, p.turn = p.turn, -1
		default: // straight track-1/track-3 run
			p.pending = p.dir
		}
		return
	}

	// --- Track 2: internal segments (knock-knee rules, Sec. 5.2.3 / 6). ---
	if cap(rt.in) < axes {
		rt.in = make([]*pkt, axes)
		rt.outClaim = make([]*pkt, axes)
	}
	in := rt.in[:axes] // internal packet that arrived via each axis
	outClaim := rt.outClaim[:axes]
	for a := 0; a < axes; a++ {
		in[a], outClaim[a] = nil, nil
	}
	for _, p := range pkts {
		if p.phase != phInternal {
			continue
		}
		via := p.arrivedVia
		if via < 0 || in[via] != nil {
			// Two internal packets on one track-2 edge cannot happen; be
			// defensive rather than silently mis-route.
			drop(p, PartInternal, true)
			continue
		}
		in[via] = p
	}
	assigned := func(p *pkt) bool { return p != nil && p.pending >= 0 }

	// (a) Straight traffic has precedence.
	for j := 0; j < axes; j++ {
		if p := in[j]; p != nil && p.desired() == j {
			p.pending = j
			outClaim[j] = p
		}
	}
	// (b)+(c) mutual knock-knees.
	for j := 0; j < axes; j++ {
		p := in[j]
		if p == nil || assigned(p) {
			continue
		}
		l := p.desired()
		q := in[l]
		if q != nil && !assigned(q) && q.desired() == j && outClaim[l] == nil && outClaim[j] == nil {
			p.pending = l
			outClaim[l] = p
			q.pending = j
			outClaim[j] = q
			p.dir, p.turn = l, -1
			q.dir, q.turn = j, -1
		}
	}
	// (c) bend into a null crossing: smallest arrival axis wins.
	for j := 0; j < axes; j++ {
		p := in[j]
		if p == nil || assigned(p) {
			continue
		}
		l := p.desired()
		if in[l] == nil && outClaim[l] == nil {
			p.pending = l
			outClaim[l] = p
			p.dir, p.turn = l, -1
		}
	}
	// (d) everyone else tries the next crossing (continues straight).
	for j := 0; j < axes; j++ {
		p := in[j]
		if p == nil || assigned(p) {
			continue
		}
		if outClaim[j] == nil {
			p.pending = j
			outClaim[j] = p
		} else {
			drop(p, PartInternal, true) // impossible per the rules
		}
	}

	// Turners: first-segment packets performing the track-1 → track-2 bend.
	// They turn when the target track-2 edge is free ("meets a null path or
	// a path that also wants to bend"); otherwise they stay on track 1 and
	// try the next crossing.
	for _, p := range pkts {
		if p.phase != phFirst || p.turn < 0 {
			continue
		}
		if outClaim[p.turn] == nil {
			outClaim[p.turn] = p
			p.pending = p.turn
			p.phase = phInternal
			p.dir, p.turn = p.turn, -1
		}
	}

	// --- Tracks 1 and 3: straight runs with interval preemption. ---
	rt.resolveStraight(pkts, axes, true, drop)  // track 1: first/last segments
	rt.resolveStraight(pkts, axes, false, drop) // track 3: last tile
}

// resolveStraight applies the GLL82 rule per outgoing edge: among the
// packets of one track wanting the same edge, the one whose interval ends
// first (the lowest admission index among equal ends) survives; the rest
// are preempted. Sorted arrival (by left endpoint) is guaranteed by the
// time sweep.
func (rt *Router) resolveStraight(pkts []*pkt, axes int, track1 bool, drop func(*pkt, Part, bool)) {
	byAxis := &rt.byAxis
	for a := range byAxis {
		byAxis[a] = byAxis[a][:0]
	}
	for _, p := range pkts {
		if p.pending >= 0 || p.phase == phDone || p.phase == phDropped {
			continue
		}
		use := false
		if track1 {
			use = p.phase == phFirst || p.phase == phLast
		} else {
			use = p.phase == phLastTile
		}
		if !use {
			continue
		}
		byAxis[p.dir] = append(byAxis[p.dir], p)
	}
	for a := 0; a < axes; a++ {
		group := byAxis[a]
		if len(group) == 0 {
			continue
		}
		win := group[0]
		for _, p := range group[1:] {
			if p.endCoord < win.endCoord || p.endCoord == win.endCoord && p.idx < win.idx {
				win = p
			}
		}
		win.pending = a
		for _, p := range group {
			if p != win {
				drop(p, p.part(), false)
			}
		}
	}
}
