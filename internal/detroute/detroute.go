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
package detroute

import (
	"sort"
	"sync"

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

// bucketsPool recycles the per-run node-grouping buckets across detailed
// routing runs (sweeps run thousands of them).
var bucketsPool = sync.Pool{New: func() any { return new(dense.Buckets) }}

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
	node  int // box id of pos, maintained incrementally
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
func (p *pkt) path() *lattice.Path {
	return &lattice.Path{Start: p.start[:len(p.start):len(p.start)], Axes: p.moves[:len(p.moves):len(p.moves)]}
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
	d := rt.ST.G.D()
	axes := d + 1
	box := rt.ST.Box
	if len(rt.tileBuf) < axes {
		rt.tileBuf = make([]int, axes)
		rt.tcBuf = make([]int, axes)
		rt.orgBuf = make([]int, axes)
	}

	all := make([]*pkt, len(admitted))
	recs := make([]pkt, len(admitted))
	for i := range admitted {
		a := &admitted[i]
		p := &recs[i]
		*p = pkt{
			idx: i, req: a.Req, route: a.Route,
			turn: -1, arrivedVia: -1, pending: -1,
			firstBend: -1, lastBend: -1,
		}
		p.pos = rt.ST.ToLattice(a.Req.Src, a.Req.Arrival, nil)
		p.node = box.Index(p.pos)
		p.start = append([]int(nil), p.pos...)
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

	active := make([]*pkt, 0, len(admitted))
	// Per-step node grouping uses pooled epoch-stamped buckets over the
	// box's node ids: no hashing per packet and no per-step map churn.
	// Bucket chains preserve active order and keys come out in first-seen
	// order, so grouping is deterministic.
	groups := bucketsPool.Get().(*dense.Buckets)
	defer bucketsPool.Put(groups)
	groupBuf := make([]*pkt, 0, 16)

	for t := minT; t <= endT; t++ {
		for inCursor < len(arrOrder) && arrOrder[inCursor].req.Arrival == t {
			p := arrOrder[inCursor]
			inCursor++
			if rt.arrive(p, &stats, drop) {
				active = append(active, p)
			}
		}
		if len(active) == 0 {
			if inCursor == len(arrOrder) {
				break
			}
			continue
		}

		groups.Reset(box.Size(), len(active))
		for i, p := range active {
			p.pending = -1
			groups.Put(p.node, i)
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
			nid, ok := box.Step(p.node, a)
			if !ok {
				drop(p, p.part(), true) // fell off the box/horizon
				continue
			}
			p.node = nid
			p.pos[a]++
			p.moves = append(p.moves, uint8(a))
			p.arrivedVia = a
			if rt.arrive(p, &stats, drop) {
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

	outs := make([]Outcome, len(admitted))
	for i, p := range all {
		o := &outs[i]
		o.ReachedLastTile = p.reachedLast
		o.Path = p.path()
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
func (rt *Router) arrive(p *pkt, stats *Stats, drop func(*pkt, Part, bool)) bool {
	tl := rt.SK.Tl
	tiles := p.route.Tiles
	cur := tl.TBox.Index(tl.TileOf(p.pos, rt.tileBuf))

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
		if p.phase == phFirst {
			p.endCoord = rt.firstEndpoint(p)
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
// first survives; the rest are preempted. Sorted arrival (by left endpoint)
// is guaranteed by the time sweep.
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
		if len(group) > 1 {
			sort.Slice(group, func(i, j int) bool {
				if group[i].endCoord != group[j].endCoord {
					return group[i].endCoord < group[j].endCoord
				}
				return group[i].idx < group[j].idx
			})
		}
		group[0].pending = a
		for _, p := range group[1:] {
			drop(p, p.part(), false)
		}
	}
}
