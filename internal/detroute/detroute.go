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
// step groups its packets by grid node id. A packet alone at its node meets
// no contention and advances along its desired axis at once; only a node
// holding two or more packets runs the per-track rules. Each packet keeps its
// grid node and its tile current as it moves: a move adds one stride to each
// and compares the moved coordinate with the next tile boundary on that axis.
//
// The per-move bookkeeping (arrive) runs only where its outcome can change:
// on a move into another tile, and on a move inside the last tile that
// reaches the destination's coordinate on its axis. This is exact. A
// route's tiles are distinct, so a move that stays in its tile keeps the
// route index. arrive changes the phase only on entering a bend tile or
// the last tile. It sets a pending bend when the travel axis differs from
// the tile's exit axis and no bend is pending; that holds on entering the
// tile, then not again until the bend is taken, and after it the travel
// axis is the exit axis, since the travel axis changes only by a bend.
// Inside the last tile a packet travels along one axis toward the
// destination's coordinate on it and picks the next axis, or is
// delivered, only on reaching it.
//
// The tile origins the interval ends need follow from the first tile's
// origin and the route's axis counts: a route steps from each tile to the
// next along one axis, so its tile j lies, on each axis, one side beyond
// the first tile per step along that axis among its first j. The same
// counts bound a packet's moves. A move adds 1 to one coordinate, so a
// packet has made as many moves as its coordinates have grown in sum.
// Inside its route a packet never passes the last tile's high corner on
// any axis, since routes only step up. A move out of the route starts in a
// tile other than the last, which lies a full side below the last tile on
// some axis, so even that move keeps the sum within the corner's. Each
// packet's moves are cut from one per-run slab at Σₐ (last tile's high
// corner on a − start on a); some packets walk exactly that many.
package detroute

import (
	"cmp"
	"slices"

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
// plus one) the router supports: its per-node tables have one slot per
// travel axis.
const MaxAxes = 8

// Router runs detailed routing over the space-time lattice ST and its
// sketch SK; a Router with those two set is ready to use, and they may be
// replaced between runs. Its per-run slabs grow only and are reset in
// place, so a Router that runs many admitted sets allocates only when a set
// is larger than every one before: the outcomes and paths Run returns are
// valid until the router's next Run.
type Router struct {
	ST *spacetime.Graph
	SK *sketch.Graph

	// The counters of the current Run.
	stats Stats

	// The slabs every Run cuts its lists from: the int32 index lists and
	// grouping table, the packets, their coordinates and moves, and the
	// outcomes and paths returned.
	ix     []int32
	pkts   []pkt
	coords []int
	moves  []uint8
	outs   []Outcome
	paths  []lattice.Path
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
	// pending is the axis claimed for the current step by a node holding
	// two or more packets (-1: not yet).
	pending int

	routeIdx  int // index into route.Tiles of the current tile
	firstBend int // tile index of the first bend (-1 if none)
	lastBend  int // tile index of the last bend (-1 if none)

	// endCoord is the right endpoint of the current track-1/track-3
	// interval along dir, for GLL82 preemption comparisons; lastEnd is the
	// last segment's, the last tile's entry side along its axis.
	endCoord int
	lastEnd  int

	start []int
	moves []uint8

	reachedLast bool
	droppedIn   Part
}

// path hands the walked path over to the caller. Its slices are returned,
// not copied: they live in the router's slabs until the next Run, as the
// returned path does. The full-slice expressions keep an append by the
// caller from writing into spare capacity.
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

func (rt *Router) drop(p *pkt, part Part, anomaly bool) {
	p.phase = phDropped
	p.droppedIn = part
	rt.stats.DroppedBy[part]++
	if anomaly {
		rt.stats.Anomalies++
	}
}

// slab returns the first n items of *s, growing *s first if it is shorter.
// The items keep whatever an earlier run left in them.
func slab[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	return (*s)[:n]
}

// Run performs detailed routing for all admitted requests and returns
// per-request outcomes plus aggregate stats. The outcomes and their paths
// are cut from the router's slabs and stay valid until its next Run.
func (rt *Router) Run(admitted []Admitted) ([]Outcome, Stats) {
	n := len(admitted)
	g := rt.ST.G
	d := g.D()
	axes := d + 1
	tl := rt.SK.Tl
	rt.stats = Stats{Injected: n}

	var gm geom
	for a, s := d-1, 1; a >= 0; a-- {
		gm.gstride[a] = s
		s *= g.Dims[a]
	}
	for a := 0; a < axes; a++ {
		gm.tstride[a] = tl.TBox.Stride(a)
		gm.side[a] = tl.Side[a]
		gm.hi[a] = rt.ST.Box.Hi[a]
	}

	// Every per-run list is cut from one slab of int32 packet indexes (and,
	// for the grouping table, grid node ids): the injection order, each
	// packet's move bound, this step's and the next step's in-flight
	// packets, the group chain and the group being resolved; then a stamp,
	// a head and a tail per grid node. Every list but the stamps is written
	// before it is read; the stamps are cleared, since an earlier run's
	// epochs would pass for this run's.
	nodes := g.N()
	ix := slab(&rt.ix, 6*n+3*nodes)
	order, bound, active, spare, link, grp := ix[:n], ix[n:2*n], ix[2*n:2*n:3*n], ix[3*n:3*n:4*n], ix[4*n:5*n], ix[5*n:5*n:6*n]
	stamp, head, tail := ix[6*n:6*n+nodes], ix[6*n+nodes:6*n+2*nodes], ix[6*n+2*nodes:]
	clear(stamp)

	// Each packet's coordinates are cut from one per-run slice.
	pkts := slab(&rt.pkts, n)
	coords := slab(&rt.coords, 3*n*axes)
	total := 0
	for i := range admitted {
		m := rt.inject(&pkts[i], &admitted[i], coords[3*i*axes:3*(i+1)*axes], &gm)
		bound[i] = int32(m)
		total += m
		order[i] = int32(i)
	}
	moves := slab(&rt.moves, total)
	for i := range pkts {
		m := int(bound[i])
		pkts[i].moves = moves[:0:m]
		moves = moves[m:]
	}

	// Injection order: packets by arrival time (same-time packets keep their
	// admission order), consumed by a cursor in the time sweep. Admission
	// preserves the scenario.Generate arrival-order invariant, so admitted
	// requests arrive here already sorted — verify with one linear pass and
	// only fall back to a stable sort for hand-built unsorted inputs.
	for i := 1; i < n; i++ {
		if pkts[i].req.Arrival < pkts[i-1].req.Arrival {
			slices.SortStableFunc(order, func(a, b int32) int {
				return cmp.Compare(pkts[a].req.Arrival, pkts[b].req.Arrival)
			})
			break
		}
	}
	var minT int64
	if n > 0 {
		minT = pkts[order[0]].req.Arrival
	}
	inCursor := 0

	// Hard stop: the largest reachable time in the box.
	endT := int64(gm.hi[axes-1] - 1)
	for a := 0; a < d; a++ {
		endT += int64(gm.hi[a] - 1)
	}

	var epoch int32
	for t := minT; t <= endT; t++ {
		for inCursor < n && pkts[order[inCursor]].req.Arrival == t {
			i := order[inCursor]
			inCursor++
			if rt.arrive(&pkts[i]) {
				active = append(active, i)
			}
		}
		if len(active) == 0 {
			if inCursor == n {
				break
			}
			// Nothing in flight: skip to the next arrival.
			t = pkts[order[inCursor]].req.Arrival - 1
			continue
		}

		// Group by grid node: chain each packet behind the last one seen at
		// its node, so a chain keeps the in-flight order and its head is the
		// first packet of the node in that order.
		epoch++
		for _, i := range active {
			k := pkts[i].gnode
			link[i] = -1
			if stamp[k] != epoch {
				stamp[k], head[k] = epoch, i
			} else {
				link[tail[k]] = i
			}
			tail[k] = i
		}

		// Resolve each node at its head and move every packet. A node's
		// packets all come at or after its head, so none has moved when the
		// node is resolved.
		nxt := spare[:0]
		for _, i := range active {
			p := &pkts[i]
			var a int
			if head[p.gnode] == i && link[i] < 0 {
				// Alone at its node: advance along the desired axis,
				// committing a pending bend (a first-segment packet's bend
				// starts its internal segment).
				if p.turn >= 0 {
					p.dir, p.turn, p.phase = p.turn, -1, phInternal
				}
				a = p.dir
			} else {
				if head[p.gnode] == i {
					grp = grp[:0]
					for j := i; j >= 0; j = link[j] {
						grp = append(grp, j)
					}
					rt.resolveNode(grp, axes)
				}
				a, p.pending = p.pending, -1
				if p.phase == phDropped {
					continue
				}
				if a < 0 {
					rt.drop(p, p.part(), true) // could not move: impossible per analysis
					continue
				}
			}
			if p.pos[a]+1 >= gm.hi[a] {
				rt.drop(p, p.part(), true) // fell off the box/horizon
				continue
			}
			p.pos[a]++
			p.gnode += gm.gstride[a]
			p.moves = append(p.moves, uint8(a))
			p.arrivedVia = a
			if p.pos[a] == p.next[a] {
				p.tile += gm.tstride[a]
				p.next[a] += gm.side[a]
				if !rt.arrive(p) {
					continue
				}
			} else if p.phase == phLastTile && p.pos[a] == p.endCoord && !rt.lastTileStep(p) {
				continue
			}
			nxt = append(nxt, i)
		}
		active, spare = nxt, active
	}
	for _, i := range active {
		p := &pkts[i]
		rt.drop(p, p.part(), true)
	}

	// Only some fields of an outcome are set below, so the slab is cleared.
	outs := slab(&rt.outs, n)
	clear(outs)
	paths := slab(&rt.paths, n)
	for i := range pkts {
		p := &pkts[i]
		o := &outs[i]
		o.ReachedLastTile = p.reachedLast
		paths[i] = p.path()
		o.Path = &paths[i]
		if p.phase == phDone {
			o.Delivered = true
			o.DeliveredAt = spacetime.TimeOf(p.pos)
			o.OnTime = p.req.Deadline == grid.InfDeadline || o.DeliveredAt <= p.req.Deadline
			rt.stats.Delivered++
		} else {
			o.DroppedIn = p.droppedIn
		}
		if p.reachedLast {
			rt.stats.ReachedLastTile++
		}
	}
	return outs, rt.stats
}

// geom holds a Run's per-axis steps of a packet's grouping key (a
// row-major grid node id; a hold stays at its node) and of its tile id, the
// tile sides and the box's upper ends.
type geom struct {
	gstride, tstride, side, hi [MaxAxes]int
}

// inject sets p up at its request's source point, with its pos, start and
// next cut from c, and returns its move bound. The start tile's origin
// gives the interval ends and the bound (see the package comment).
func (rt *Router) inject(p *pkt, a *Admitted, c []int, gm *geom) int {
	axes := len(c) / 3
	pos, start, next := c[:axes:axes], c[axes:2*axes:2*axes], c[2*axes:]
	side := &gm.side
	*p = pkt{
		req: a.Req, route: a.Route, pos: pos, start: start, next: next,
		turn: -1, arrivedVia: -1, pending: -1,
		firstBend: -1, lastBend: -1,
	}
	tl := rt.SK.Tl
	rt.ST.ToLattice(a.Req.Src, a.Req.Arrival, pos)
	copy(start, pos)
	for x := range pos {
		p.gnode += pos[x] * gm.gstride[x] // 0 on the w axis
		t := lattice.FloorDiv(pos[x]-tl.Phase[x], side[x])
		p.tile += (t - tl.TBox.Lo[x]) * gm.tstride[x]
		next[x] = (t+1)*side[x] + tl.Phase[x]
	}

	var steps [MaxAxes]int
	ax := a.Route.Axes
	for j, x := range ax {
		steps[x]++
		if j > 0 && x != ax[j-1] {
			if p.firstBend < 0 {
				p.firstBend = j
			}
			p.lastBend = j
		}
	}
	// lastOrigin(x) is the last tile's low corner along axis x.
	lastOrigin := func(x int) int { return next[x] - side[x] + steps[x]*side[x] }
	if len(ax) > 0 {
		p.dir = int(ax[0])
	}
	// The first segment's interval ends at the entry side of the tile where
	// it ends (its first bend, else the last tile), plus a full side when
	// the turn is adaptive: it may happen anywhere inside the bend tile, and
	// the comparison the paper makes is "ends inside s" vs "ends beyond s".
	// Every earlier step is along dir.
	endTile := len(ax)
	if p.firstBend >= 0 {
		endTile = p.firstBend
		if p.firstBend != p.lastBend {
			endTile++
		}
	}
	p.endCoord = next[p.dir] + (endTile-1)*side[p.dir]
	if p.lastBend >= 0 {
		p.lastEnd = lastOrigin(int(ax[p.lastBend]))
	}
	m := 0
	for x := range pos {
		m += lastOrigin(x) + side[x] - 1 - start[x]
	}
	return m
}

// arrive processes a packet that was just injected or moved into another
// tile. It returns false when the packet left the system (delivered or
// dropped).
func (rt *Router) arrive(p *pkt) bool {
	tiles := p.route.Tiles

	// Advance along the tile sequence; leaving it is an overrun.
	if p.routeIdx+1 < len(tiles) && p.tile == tiles[p.routeIdx+1] {
		p.routeIdx++
	} else if p.tile != tiles[p.routeIdx] {
		rt.drop(p, p.part(), true)
		return false
	}

	// Entering (or starting in) the last tile.
	if p.routeIdx == len(tiles)-1 {
		p.phase = phLastTile
		p.reachedLast = true
		return rt.lastTileStep(p)
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
				p.endCoord = p.lastEnd
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
			p.endCoord = p.lastEnd
		} else if int(p.route.Axes[p.routeIdx]) != p.dir && p.turn < 0 {
			p.turn = int(p.route.Axes[p.routeIdx])
		}
	}
	return true
}

// lastTileStep routes a packet inside its last tile in dimension order: it
// is delivered at its destination, else it travels along the first space
// axis on which it falls short; overshooting an axis (possible for d ≥ 2)
// is a last-tile loss accounted by Prop. 36, not an anomaly. It returns
// false when the packet left the system.
func (rt *Router) lastTileStep(p *pkt) bool {
	dst := p.req.Dst
	for a, x := range p.pos[:len(dst)] {
		if x == dst[a] {
			continue
		}
		if x > dst[a] {
			rt.drop(p, PartLastTile, false)
			return false
		}
		p.dir = a
		p.turn = -1
		p.endCoord = dst[a]
		return true
	}
	p.phase = phDone
	return false
}

// assigned reports whether p claimed an outgoing edge this step.
func assigned(p *pkt) bool { return p != nil && p.pending >= 0 }

// resolveNode decides, for the packets of grp (two or more, all at one
// lattice node, in in-flight order), which outgoing edge (and track) each
// takes, applying the three per-track rules.
func (rt *Router) resolveNode(grp []int32, axes int) {
	pkts := rt.pkts

	// --- Track 2: internal segments (knock-knee rules, Sec. 5.2.3 / 6). ---
	var in [MaxAxes]*pkt // internal packet that arrived via each axis
	var outClaim [MaxAxes]*pkt
	for _, i := range grp {
		p := &pkts[i]
		if p.phase != phInternal {
			continue
		}
		via := p.arrivedVia
		if via < 0 || in[via] != nil {
			// Two internal packets on one track-2 edge cannot happen; be
			// defensive rather than silently mis-route.
			rt.drop(p, PartInternal, true)
			continue
		}
		in[via] = p
	}

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
			rt.drop(p, PartInternal, true) // impossible per the rules
		}
	}

	// Turners: first-segment packets performing the track-1 → track-2 bend.
	// They turn when the target track-2 edge is free ("meets a null path or
	// a path that also wants to bend"); otherwise they stay on track 1 and
	// try the next crossing.
	for _, i := range grp {
		p := &pkts[i]
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
	rt.resolveStraight(grp, axes)
}

// resolveStraight applies the GLL82 rule per track and outgoing edge:
// among the packets of one track (1: first and last segments, 3: the last
// tile) wanting the same edge, the one whose interval ends first (the
// lowest admission index among equal ends) survives; the rest are
// preempted. Sorted arrival (by left endpoint) is guaranteed by the time
// sweep.
func (rt *Router) resolveStraight(grp []int32, axes int) {
	pkts := rt.pkts
	// win[track][axis] is 1 + the index of the best packet so far, 0 none.
	var win [2][MaxAxes]int32
	for _, i := range grp {
		p := &pkts[i]
		if p.pending >= 0 {
			continue
		}
		var w *int32
		switch p.phase {
		case phFirst, phLast:
			w = &win[0][p.dir]
		case phLastTile:
			w = &win[1][p.dir]
		default:
			continue
		}
		if *w == 0 || p.endCoord < pkts[*w-1].endCoord || p.endCoord == pkts[*w-1].endCoord && i < *w-1 {
			*w = i + 1
		}
	}
	for tr := range win {
		for a := 0; a < axes; a++ {
			if w := win[tr][a]; w > 0 {
				pkts[w-1].pending = a
			}
		}
	}
	for _, i := range grp {
		p := &pkts[i]
		if p.pending < 0 && (p.phase == phFirst || p.phase == phLast || p.phase == phLastTile) {
			rt.drop(p, p.part(), false)
		}
	}
}
