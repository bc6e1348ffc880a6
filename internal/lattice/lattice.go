// Package lattice implements bounded axis-aligned integer boxes with directed
// unit-step edges along each axis ("box DAGs").
//
// Both the untilted space-time graph of a uni-directional grid (Sec. 3.1–3.2
// of Even–Medina) and every sketch graph over its tiles (Sec. 3.4) are box
// DAGs: after the untilting automorphism q(x, t) = (x, t − Σx), all edges
// advance exactly one coordinate by +1. Two structural facts are exploited
// throughout the repository:
//
//  1. every directed path between two points u ≤ v has exactly ‖v−u‖₁ edges,
//     so the bounded-path-length constraint of Theorem 1 reduces to bounding
//     the destination window; and
//  2. any traversal of points in non-decreasing coordinate order is a
//     topological order; ordering by t = w + Σx makes the traversal coincide
//     with simulation time.
//
// DP is the lightest-path oracle's kernel (Theorem 1, Sec. 5.1): it solves
// one window shape, a sub-box of the box whose low corner is the source, as
// package sketch builds it from a request's source tile and destination ray.
package lattice

import (
	"fmt"
	"math"
)

// Box is the set of integer points p with Lo[i] ≤ p[i] < Hi[i] for every
// axis i, together with the directed edges p → p+e_i for points where the
// head is still inside the box.
type Box struct {
	Lo, Hi []int

	dims   []int
	stride []int
	size   int
}

// NewBox constructs a box. Panics if hi[i] ≤ lo[i] for some axis: boxes are
// configuration and must be non-empty.
func NewBox(lo, hi []int) *Box {
	if len(lo) != len(hi) || len(lo) == 0 {
		panic("lattice: lo/hi dimension mismatch")
	}
	b := &Box{
		Lo:     append([]int(nil), lo...),
		Hi:     append([]int(nil), hi...),
		dims:   make([]int, len(lo)),
		stride: make([]int, len(lo)),
	}
	b.size = 1
	for i := len(lo) - 1; i >= 0; i-- {
		if hi[i] <= lo[i] {
			panic(fmt.Sprintf("lattice: empty axis %d: [%d,%d)", i, lo[i], hi[i]))
		}
		b.dims[i] = hi[i] - lo[i]
		b.stride[i] = b.size
		b.size *= b.dims[i]
	}
	return b
}

// D returns the number of axes.
func (b *Box) D() int { return len(b.Lo) }

// Size returns the number of points in the box.
func (b *Box) Size() int { return b.size }

// Contains reports whether p lies inside the box.
func (b *Box) Contains(p []int) bool {
	if len(p) != len(b.Lo) {
		return false
	}
	for i, x := range p {
		if x < b.Lo[i] || x >= b.Hi[i] {
			return false
		}
	}
	return true
}

// Index maps a point to a dense id in [0, Size). Panics when out of range.
func (b *Box) Index(p []int) int {
	id := 0
	for i, x := range p {
		if x < b.Lo[i] || x >= b.Hi[i] {
			panic(fmt.Sprintf("lattice: point %v outside box [%v,%v)", p, b.Lo, b.Hi))
		}
		id += (x - b.Lo[i]) * b.stride[i]
	}
	return id
}

// Stride returns how much a +1 step along axis adds to a point's dense id.
func (b *Box) Stride(axis int) int { return b.stride[axis] }

// Point maps a dense id back to coordinates, writing into out when non-nil.
func (b *Box) Point(id int, out []int) []int {
	if out == nil {
		out = make([]int, len(b.Lo))
	}
	for i := range b.Lo {
		out[i] = b.Lo[i] + id/b.stride[i]
		id %= b.stride[i]
	}
	return out
}

// Step returns the id of the neighbor of node id along +axis, and whether it
// exists (the head may fall outside the box).
func (b *Box) Step(id, axis int) (int, bool) {
	// Coordinate along axis is (id / stride[axis]) % dims[axis].
	c := (id / b.stride[axis]) % b.dims[axis]
	if c+1 >= b.dims[axis] {
		return 0, false
	}
	return id + b.stride[axis], true
}

// L1 returns ‖v−u‖₁ for u ≤ v, which is the (unique) number of edges on any
// directed path from u to v. It returns -1 if v is not reachable from u.
func L1(u, v []int) int {
	s := 0
	for i := range u {
		if v[i] < u[i] {
			return -1
		}
		s += v[i] - u[i]
	}
	return s
}

// Path is a directed lattice path: a start point followed by unit steps, each
// advancing one axis.
type Path struct {
	Start []int
	Axes  []uint8
}

// Len returns the number of edges.
func (p *Path) Len() int { return len(p.Axes) }

// End returns the final point of the path.
func (p *Path) End() []int {
	q := append([]int(nil), p.Start...)
	for _, a := range p.Axes {
		q[a]++
	}
	return q
}

// Visit calls fn for every point of the path in order, including endpoints.
// fn receives a reused buffer; it must not retain it.
func (p *Path) Visit(fn func(pt []int)) {
	q := append([]int(nil), p.Start...)
	fn(q)
	for _, a := range p.Axes {
		q[a]++
		fn(q)
	}
}

// Inf is the cost of an unreachable node.
var Inf = math.Inf(1)

// DP computes lightest directed paths from the low corner of a window of a
// box. A DP value is reusable across calls to RunFlatBounded; it grows its
// buffers as needed.
//
// Path cost convention: cost(path) = Σ_nodes nodeX[v] + Σ_edges edgeX[e],
// where the sum over nodes includes both endpoints. Node weights fold the
// interior edges of split sketch tiles into the DP (Sec. 5.1): this matches
// the {1,2,∞}-sketch-graph cost of a path s¹_in → s¹_out → … → sᴸ_out, which
// traverses the interior edge of every visited tile.
type DP struct {
	box   *Box
	winLo []int
	winHi []int
	wdims []int
	wstr  []int
	wsize int
	cost  []float64
	pred  []int8

	winBoxBase int // box.Index(winLo): box id of the window origin, the source

	sweep sweepArgs // arguments of the current run's pull kernel
}

// maxAxes bounds the number of axes of a DP's box: the generic pull kernel
// advances each node's coordinates in stack scratch of this size, and NewDP
// refuses larger boxes. Scenario grids have at most 4 spatial axes, so
// their space-time boxes have at most 5.
const maxAxes = 16

// sweepArgs holds the arguments of a DP's pull kernel for the current run.
type sweepArgs struct {
	edgeX []float64
	nodeX []float64
	bound float64
}

// NewDP returns a DP bound to box. Panics if the box has more than
// maxAxes axes: the kernels decode coordinates into fixed-size stack
// scratch, and boxes are configuration.
func (b *Box) NewDP() *DP {
	d := len(b.Lo)
	if d > maxAxes {
		panic(fmt.Sprintf("lattice: DP over %d axes exceeds maxAxes = %d", d, maxAxes))
	}
	return &DP{
		box:   b,
		winLo: make([]int, d), winHi: make([]int, d),
		wdims: make([]int, d), wstr: make([]int, d),
	}
}

//gridroute:hotpath
func (dp *DP) winIndex(p []int) int {
	id := 0
	for i, x := range p {
		id += (x - dp.winLo[i]) * dp.wstr[i]
	}
	return id
}

//gridroute:hotpath
func (dp *DP) inWindow(p []int) bool {
	for i, x := range p {
		if x < dp.winLo[i] || x >= dp.winHi[i] {
			return false
		}
	}
	return true
}

// setupWindow records the window and sizes the cost/pred buffers. It panics
// when the window is not a non-empty sub-box of the box: package sketch
// builds every window from a source tile inside its tiling, so any other
// window is a caller bug. Buffers are reused across calls, so a warm DP
// allocates nothing. The buffers are NOT reset here: the pull kernels write
// every node of the window themselves.
//
//gridroute:hotpath
func (dp *DP) setupWindow(winLo, winHi []int) {
	b := dp.box
	dp.wsize = 1
	dp.winBoxBase = 0
	for i := range dp.wdims {
		lo, hi := winLo[i], winHi[i]
		if lo < b.Lo[i] || hi > b.Hi[i] || hi <= lo {
			panic("lattice: DP window is not a non-empty sub-box of the box")
		}
		dp.winLo[i], dp.winHi[i] = lo, hi
		dp.wdims[i] = hi - lo
		dp.winBoxBase += (lo - b.Lo[i]) * b.stride[i]
	}
	for i := len(dp.wdims) - 1; i >= 0; i-- {
		dp.wstr[i] = dp.wsize
		dp.wsize *= dp.wdims[i]
	}
	if cap(dp.cost) < dp.wsize {
		dp.cost = make([]float64, dp.wsize)
		dp.pred = make([]int8, dp.wsize)
	}
	dp.cost = dp.cost[:dp.wsize]
	dp.pred = dp.pred[:dp.wsize]
}

// RunFlatBounded computes lightest paths from the window's low corner winLo,
// the source, to every point of the window [winLo, winHi), which must be a
// non-empty sub-box of the box (it panics otherwise). Weights are read from
// flat slices indexed by box node id: the edge leaving node id along axis a
// costs edgeX[id·D+a] (D = box.D()), and visiting node id costs nodeX[id]
// (nil nodeX means zero node weights). This is the packing hot path: the
// slices are an ipp packer's weight universe, indexed directly with no call
// or hash per relaxation. Afterwards, use CostAt, MinCostRay and PathInto.
//
// Relaxation may stop at nodes whose cost has reached bound (pass Inf for
// none). Every node whose exact lightest cost is < bound gets the exact cost
// and predecessor, bit for bit (a pruned candidate has cost ≥ bound and so
// can neither win nor tie below the bound); nodes at or beyond the bound
// report some cost ≥ bound, or Inf. Callers that only consume results
// strictly below bound — sketch.Session.Offer's accept test at cost < 1 —
// therefore see exact answers, at a fraction of the relaxation work on
// saturated lattices where the kernel prunes.
//
//gridroute:hotpath
func (dp *DP) RunFlatBounded(winLo, winHi []int, edgeX, nodeX []float64, bound float64) {
	dp.setupWindow(winLo, winHi)
	// Pull sweep: every window node is computed from its (already final)
	// predecessors and written exactly once, so no O(window) Inf/−1 reset
	// pass is needed. Each node takes the min over its in-window
	// predecessors, axes in ascending order, strict <; that is also the
	// order in which a naive row-major push sweep (the tests' reference)
	// reaches it, so both keep the lowest-axis predecessor on cost ties. The
	// source, window index 0, is written up front and the kernels start one
	// node past it.
	dp.sweep = sweepArgs{edgeX: edgeX, nodeX: nodeX, bound: bound}
	if nodeX != nil {
		dp.cost[0] = nodeX[dp.winBoxBase]
	} else {
		dp.cost[0] = 0
	}
	dp.pred[0] = -1
	// The kernel follows the window's shape, not the box's: an axis of
	// extent 1 carries no in-window edge, so a window with at most two axes
	// of extent > 1 is a rows × cols grid over them, stored row-major. The
	// kernel map, by caller:
	//   - runPull2 (≤ 2 such axes, nodeX set): Downscaled sketch sessions —
	//     the engine and core.RunDeterministic — on a line, and on grids
	//     whose route windows are planes of tiles (a chain window, with one
	//     such axis, never reaches the DP: the session walks it directly).
	//     These queries run at bound Inf, and the kernel relaxes every node;
	//   - runPull2NoNode (≤ 2 such axes, nodeX nil): Raw sketch sessions
	//     on a line — core.RunRandomized (lines only), and on unit tiles
	//     (sketch.SpaceTime) the dual certificate and Theorem 13, which run
	//     at bound 1. It is the one kernel that prunes beyond the bound;
	//   - runChunkGeneric (3 or more such axes): Downscaled sessions and
	//     unit-tile Raw sessions on 2-D and 3-D grids.
	ra, ca, n := -1, -1, 0
	for a, w := range dp.wdims {
		if w > 1 {
			ra, ca, n = ca, a, n+1
		}
	}
	switch {
	case n > 2:
		dp.runChunkGeneric()
	case n > 0:
		dp.runPull2(ra, ca)
	}
	// n == 0: the window is the source alone, already written.
}

// runPull2 is the pull sweep over a window whose only axes of extent > 1
// are the row axis ra and the column axis ca > ra (ra < 0: a single row).
// Edge weights are read at the box's edge stride D, and pred stores the
// real axis ids. It relaxes every node, so its costs are exact, which meets
// RunFlatBounded's contract at any bound: Downscaled sessions, the only
// callers with node weights, query at bound Inf, where nothing is pruned.
//
//gridroute:hotpath
func (dp *DP) runPull2(ra, ca int) {
	if dp.sweep.nodeX == nil {
		dp.runPull2NoNode(ra, ca)
		return
	}
	sw := &dp.sweep
	cost, pred := dp.cost, dp.pred
	edgeX, nodeX := sw.edgeX, sw.nodeX
	d := dp.box.D()
	rows, bsR := 1, 0
	if ra >= 0 {
		rows, bsR = dp.wdims[ra], dp.box.stride[ra]
	}
	cols, bsC := dp.wdims[ca], dp.box.stride[ca]
	predR, predC := int8(ra), int8(ca)
	inf := Inf
	for i := 0; i < rows; i++ {
		row, prow := cost[i*cols:(i+1)*cols], pred[i*cols:(i+1)*cols]
		up := row // the row above; unused in the top row
		bID := dp.winBoxBase + i*bsR
		if i > 0 {
			// Column 0 pulls from above only. In the top row it is the
			// source, written up front.
			up = cost[(i-1)*cols : i*cols]
			best, bp := inf, int8(-1)
			if ec := up[0] + edgeX[(bID-bsR)*d+ra] + nodeX[bID]; ec < best {
				best, bp = ec, predR
			}
			row[0], prow[0] = best, bp
		}
		// As in runPull2NoNode: `left` carries the just-written cell, and
		// the edge indices advance by bsC·D per column.
		left := row[0]
		vE := (bID+bsC-bsR)*d + ra
		hE := bID*d + ca
		step := bsC * d
		up, prow = up[:len(row)], prow[:len(row)]
		for c := 1; c < len(row); c++ {
			bID += bsC
			best, bp := inf, int8(-1)
			if i > 0 {
				if ec := up[c] + edgeX[vE] + nodeX[bID]; ec < best {
					best, bp = ec, predR
				}
			}
			if ec := left + edgeX[hE] + nodeX[bID]; ec < best {
				best, bp = ec, predC
			}
			row[c], prow[c] = best, bp
			left = best
			vE += step
			hE += step
		}
	}
}

// runPull2NoNode is runPull2 for nil node weights: Raw sketch sessions,
// which index edge weights only and run at bound 1. Column 0 and the top
// row are peeled so the steady-state inner loop carries no per-node
// boundary or nil checks; dp fields are hoisted into locals because stores
// through cost/pred keep the compiler from proving dp itself is unmodified,
// and the loops index the row and the row above through their own slices,
// which leaves fewer values live across an iteration than one running
// window index (measured: BenchmarkHotPath/STPackerLightestPath).
//
// Each row's scan terminates early at the alive frontier. A cell is alive
// when its cost is < bound; a dead cell — Inf or a finite cost at/past the
// bound — is pruned as a predecessor by the bound gate, so a cell can only
// be non-Inf if its vertical or horizontal predecessor is alive. Scanning
// row i left to right, once the column is past `revive` (the last alive
// column of row i−1) and the cell just written is dead, no later cell in
// the row has an alive predecessor: the remainder is exactly (Inf, −1) and
// is bulk-filled. A row with no alive cell ends the sweep the same way:
// every later row is (Inf, −1). On bounded runs the per-offer work shrinks
// from the window's area to roughly the reachable-below-bound region's.
//
//gridroute:hotpath
func (dp *DP) runPull2NoNode(ra, ca int) {
	sw := &dp.sweep
	cost, pred := dp.cost, dp.pred
	edgeX, bound := sw.edgeX, sw.bound
	d := dp.box.D()
	rows, bsR := 1, 0
	if ra >= 0 {
		rows, bsR = dp.wdims[ra], dp.box.stride[ra]
	}
	cols, bsC := dp.wdims[ca], dp.box.stride[ca]
	predR, predC := int8(ra), int8(ca)
	inf := Inf
	revive := -1 // last column of the previous row that can revive this one
	for i := 0; i < rows; i++ {
		maxA := -1   // last alive column written in this row
		stop := cols // first column of the row's dead remainder
		row, prow := cost[i*cols:(i+1)*cols], pred[i*cols:(i+1)*cols]
		bID := dp.winBoxBase + i*bsR
		// Column 0: no horizontal predecessor. In the top row it is the
		// source, written up front.
		if i == 0 {
			if row[0] < bound {
				maxA = 0
			}
		} else {
			best, bp := inf, int8(-1)
			if pc := cost[(i-1)*cols]; pc < bound {
				if ec := pc + edgeX[(bID-bsR)*d+ra]; ec < best {
					best, bp = ec, predR
				}
			}
			row[0], prow[0] = best, bp
			if best < bound {
				maxA = 0
			} else if revive < 0 {
				stop = 1
			}
		}
		// The inner loops carry the just-written cell in `left` (sparing the
		// row[c−1] reload) and advance the two edgeX indices by strength
		// reduction: a +1 column step moves the vertical-pull index
		// (bID−bsR)·D+ra and the horizontal-pull index (bID−bsC)·D+ca by
		// bsC·D each.
		left := row[0]
		vE := (bID+bsC-bsR)*d + ra
		hE := bID*d + ca
		step := bsC * d
		switch {
		case stop < cols:
			// Row died at column 0.
		case i == 0:
			// Top row: horizontal prefix from the source.
			prow = prow[:len(row)]
			for c := 1; c < len(row); c++ {
				best, bp := inf, int8(-1)
				if left < bound {
					if ec := left + edgeX[hE]; ec < best {
						best, bp = ec, predC
					}
				}
				row[c], prow[c] = best, bp
				left = best
				if best < bound {
					maxA = c
				} else if c > revive {
					stop = c + 1
					break
				}
				hE += step
			}
		default:
			// Steady state: both predecessors exist.
			up := cost[(i-1)*cols : i*cols]
			up, prow = up[:len(row)], prow[:len(row)]
			for c := 1; c < len(row); c++ {
				best, bp := inf, int8(-1)
				if pc := up[c]; pc < bound {
					if ec := pc + edgeX[vE]; ec < best {
						best, bp = ec, predR
					}
				}
				if left < bound {
					if ec := left + edgeX[hE]; ec < best {
						best, bp = ec, predC
					}
				}
				row[c], prow[c] = best, bp
				left = best
				if best < bound {
					maxA = c
				} else if c > revive {
					stop = c + 1
					break
				}
				vE += step
				hE += step
			}
		}
		if stop < cols {
			dp.fillDead(i*cols+stop, (i+1)*cols)
		}
		if maxA < 0 {
			// Fully dead row: everything below is dead too.
			dp.fillDead((i+1)*cols, dp.wsize)
			return
		}
		revive = maxA
	}
}

// fillDead writes the exact dead-region values (Inf, −1) to window indices
// [from, to) after an alive-frontier or dead-row cutoff.
//
//gridroute:hotpath
func (dp *DP) fillDead(from, to int) {
	cost, pred := dp.cost[from:to], dp.pred[from:to]
	for j := range cost {
		cost[j] = Inf
	}
	for j := range pred {
		pred[j] = -1
	}
}

// runChunkGeneric is the pull sweep for any number of axes ≤ maxAxes: each
// row's rest-space coordinates (axes 1..d−1) live in stack scratch and are
// advanced with an odometer (nextRest). The top row starts one node past
// the source.
//
//gridroute:hotpath
func (dp *DP) runChunkGeneric() {
	sw := &dp.sweep
	cost, pred := dp.cost, dp.pred
	edgeX, nodeX, bound := sw.edgeX, sw.nodeX, sw.bound
	d := dp.box.D()
	rows := dp.wdims[0]
	cols := dp.wsize / rows
	for i := 0; i < rows; i++ {
		var off [maxAxes]int
		w, bID := i*cols, dp.winBoxBase+i*dp.box.stride[0]
		if i == 0 {
			w, bID = 1, dp.nextRest(&off, bID)
		}
		for end := (i + 1) * cols; w < end; w, bID = w+1, dp.nextRest(&off, bID) {
			best, bp := Inf, int8(-1)
			if i > 0 {
				if pc := cost[w-cols]; pc < bound {
					ec := pc + edgeX[(bID-dp.box.stride[0])*d]
					if nodeX != nil {
						ec += nodeX[bID]
					}
					if ec < best {
						best, bp = ec, 0
					}
				}
			}
			for a := 1; a < d; a++ {
				if off[a] == 0 {
					continue
				}
				if pc := cost[w-dp.wstr[a]]; pc < bound {
					ec := pc + edgeX[(bID-dp.box.stride[a])*d+a]
					if nodeX != nil {
						ec += nodeX[bID]
					}
					if ec < best {
						best, bp = ec, int8(a)
					}
				}
			}
			cost[w], pred[w] = best, bp
		}
	}
}

// nextRest advances the rest-space odometer off (axes 1..d−1, row-major) by
// one node and returns that node's box id, given the current one's.
//
//gridroute:hotpath
func (dp *DP) nextRest(off *[maxAxes]int, bID int) int {
	for a := len(dp.wdims) - 1; a >= 1; a-- {
		off[a]++
		bID += dp.box.stride[a]
		if off[a] < dp.wdims[a] {
			break
		}
		bID -= dp.wdims[a] * dp.box.stride[a]
		off[a] = 0
	}
	return bID
}

// CostAt returns the lightest-path cost from the source to p, or Inf if p is
// outside the window or unreachable.
//
//gridroute:hotpath
func (dp *DP) CostAt(p []int) float64 {
	if !dp.inWindow(p) {
		return Inf
	}
	return dp.cost[dp.winIndex(p)]
}

// MinCostRay returns the least cost over the points obtained from p by
// ranging p[axis] over [lo, hi], together with the coordinate achieving it
// (ties resolve to the lowest coordinate, like an ascending CostAt scan with
// a strict comparison). The ray must lie inside the last run's window, as
// the destination ray of package sketch's lightest-path oracle does:
// prepareQuery clips it into the window it builds. This is that oracle's
// route-extraction scan: one strided walk over the window buffer instead of
// a window check and a winIndex dot product per probe.
//
//gridroute:hotpath
func (dp *DP) MinCostRay(p []int, axis, lo, hi int) (best float64, bestAt int) {
	best, bestAt = Inf, lo
	str := dp.wstr[axis]
	id := dp.winIndex(p) + (lo-p[axis])*str
	for w := lo; w <= hi; w++ {
		if c := dp.cost[id]; c < best {
			best, bestAt = c, w
		}
		id += str
	}
	return best, bestAt
}

// PathInto reconstructs the lightest path to p into a caller-provided Path,
// reusing its Start and Axes slices. It reports false (leaving out
// untouched) when p is unreachable. A warm out (slices grown once) makes
// reconstruction allocation-free — the streaming admit path depends on this.
//
//gridroute:hotpath
func (dp *DP) PathInto(p []int, out *Path) bool {
	if dp.CostAt(p) == Inf {
		return false
	}
	// Walk the predecessor chain once, tracking the window index
	// incrementally (winIndex per step is a d-term dot product; a step along
	// axis a just subtracts wstr[a]). The walk emits axes sink→source;
	// reverse in place to report them forward.
	cur := append(out.Start[:0], p...)
	wi := dp.winIndex(cur)
	axes := out.Axes[:0]
	for {
		a := dp.pred[wi]
		if a < 0 {
			break
		}
		axes = append(axes, uint8(a))
		wi -= dp.wstr[a]
		cur[a]--
	}
	for i, j := 0, len(axes)-1; i < j; i, j = i+1, j-1 {
		axes[i], axes[j] = axes[j], axes[i]
	}
	// cur is now the source.
	out.Start, out.Axes = cur, axes
	return true
}

// FloorDiv returns floor(a/b) for b > 0 (Go's integer division truncates
// toward zero, which is wrong for tiling negative w coordinates).
func FloorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
