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

// Dim returns the extent of axis i.
func (b *Box) Dim(i int) int { return b.dims[i] }

// Stride returns the id increment of a +1 step along axis i: for p inside the
// box with p+e_i inside too, Index(p+e_i) = Index(p) + Stride(i). It lets a
// caller walk a path's node ids incrementally instead of re-indexing each
// point.
func (b *Box) Stride(i int) int { return b.stride[i] }

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

// Back returns the id of the neighbor of node id along −axis, and whether it
// exists.
func (b *Box) Back(id, axis int) (int, bool) {
	c := (id / b.stride[axis]) % b.dims[axis]
	if c == 0 {
		return 0, false
	}
	return id - b.stride[axis], true
}

// NumEdges returns the number of directed edges in the box.
func (b *Box) NumEdges() int {
	total := 0
	for _, d := range b.dims {
		total += (b.size / d) * (d - 1)
	}
	return total
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

// DP computes lightest directed paths inside a window of a box. A DP value is
// reusable across calls to RunFlat; it grows its buffers as needed.
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
	valid bool // the last run's window was non-empty and held src: cost/pred are its solution

	srcW       int // window index of the source (meaningful when valid)
	winBoxBase int // box.Index(winLo): box id of the window origin

	sweep sweepArgs // arguments of the current run's pull kernel
}

// maxAxes bounds the number of axes of a DP's box: the generic pull kernel
// advances each row's coordinates in stack scratch of this size, and NewDP
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

// setupWindow clips the window to the box and sizes the cost/pred buffers.
// It returns the window index of src, or ok=false when the window is empty
// or src lies outside it. Buffers are reused across calls, so a warm DP
// allocates nothing. The buffers are NOT reset here: the pull kernels write
// every node of the window themselves.
//
//gridroute:hotpath
func (dp *DP) setupWindow(winLo, winHi, src []int) (srcW int, ok bool) {
	d := dp.box.D()
	dp.wsize = 1
	for i := 0; i < d; i++ {
		lo := winLo[i]
		if lo < dp.box.Lo[i] {
			lo = dp.box.Lo[i]
		}
		hi := winHi[i]
		if hi > dp.box.Hi[i] {
			hi = dp.box.Hi[i]
		}
		if hi <= lo {
			dp.valid = false
			return 0, false
		}
		dp.winLo[i], dp.winHi[i] = lo, hi
		dp.wdims[i] = hi - lo
	}
	for i := d - 1; i >= 0; i-- {
		dp.wstr[i] = dp.wsize
		dp.wsize *= dp.wdims[i]
	}
	if cap(dp.cost) < dp.wsize {
		dp.cost = make([]float64, dp.wsize)
		dp.pred = make([]int8, dp.wsize)
	}
	dp.cost = dp.cost[:dp.wsize]
	dp.pred = dp.pred[:dp.wsize]
	if !dp.inWindow(src) {
		dp.valid = false
		return 0, false
	}
	dp.winBoxBase = dp.box.Index(dp.winLo)
	dp.valid = true
	dp.srcW = dp.winIndex(src)
	return dp.srcW, true
}

// RunFlat computes lightest paths from src to every point of the window
// [winLo, winHi) ∩ box; src must lie in the window. Weights are read from
// flat slices indexed by box node id: the edge leaving node id along axis a
// costs edgeX[id·D+a] (D = box.D()), and visiting node id costs nodeX[id]
// (nil nodeX means zero node weights). This is the packing hot path: the
// slices are an ipp packer's weight universe, indexed directly with no call
// or hash per relaxation. After RunFlat, use CostAt and PathTo.
//
//gridroute:hotpath
func (dp *DP) RunFlat(winLo, winHi, src []int, edgeX, nodeX []float64) {
	dp.runFlatBounded(winLo, winHi, src, edgeX, nodeX, Inf)
}

// RunFlatBounded is RunFlat except that relaxation stops at nodes whose cost
// has reached bound: their outgoing edges are never relaxed. Every node whose
// exact lightest cost is < bound gets the bit-identical cost and predecessor
// RunFlat would compute (a pruned candidate has cost ≥ bound and so can
// neither win nor tie below the bound); nodes at or beyond the bound report
// some cost ≥ bound, or Inf. Callers that only consume results strictly below
// bound — the Theorem 13 oracle's accept test at cost < 1 — therefore see
// exact answers at a fraction of the relaxation work on saturated lattices.
//
//gridroute:hotpath
func (dp *DP) RunFlatBounded(winLo, winHi, src []int, edgeX, nodeX []float64, bound float64) {
	dp.runFlatBounded(winLo, winHi, src, edgeX, nodeX, bound)
}

//gridroute:hotpath
func (dp *DP) runFlatBounded(winLo, winHi, src []int, edgeX, nodeX []float64, bound float64) {
	srcW, ok := dp.setupWindow(winLo, winHi, src)
	if !ok {
		return
	}
	// Pull sweep: every window node is computed from its (already final)
	// predecessors and written exactly once, so no O(window) Inf/−1 reset
	// pass is needed. Each node takes the min over its in-window
	// predecessors, axes in ascending order, strict <; that is also the
	// order in which a naive row-major push sweep (the tests' reference)
	// reaches it, so both keep the lowest-axis predecessor on cost ties. The
	// source is written up front and skipped by the kernels.
	dp.sweep = sweepArgs{edgeX: edgeX, nodeX: nodeX, bound: bound}
	if nodeX != nil {
		dp.cost[srcW] = nodeX[dp.box.Index(src)]
	} else {
		dp.cost[srcW] = 0
	}
	dp.pred[srcW] = -1
	// The kernel follows the window's shape, not the box's: an axis of
	// extent 1 carries no in-window edge, so a window with at most two axes
	// of extent > 1 is a rows × cols grid over them, stored row-major. The
	// kernel map, by caller:
	//   - runPull2 (≤ 2 such axes, nodeX set): Downscaled sketch sessions —
	//     the engine and core.RunDeterministic — on a line, and on grids
	//     whose route windows are chains or planes of tiles (a 16×16 grid
	//     with k = 18 is one spatial tile, so every window is a 1×1×L chain);
	//   - runPull2NoNode (≤ 2 such axes, nodeX nil): Raw sketch sessions
	//     (core.RunRandomized, lines only) and optbound.STPacker on a line;
	//   - runChunkGeneric (3 or more such axes): Downscaled sessions and
	//     STPacker on 2-D and 3-D grids.
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
// are the row axis ra and the column axis ca > ra (ra < 0: a single row),
// with a dead-row cutoff. Edge weights are read at the box's edge stride D,
// and pred stores the real axis ids. Once a row at or past the source's row
// ends with every cost ≥ bound, every later row is all-Inf — a candidate
// pulled from the dead row is pruned by the bound gate, and a within-row
// candidate is Inf by induction along the row — so the remainder is
// bulk-filled with the exact values (Inf, −1) the full sweep would compute.
// Results are bit-identical to pulling every node of the window; the payoff
// is on saturated bounded runs (the Theorem 13 oracle at bound = 1), where
// the reachable region collapses to a few rows near the source and the fill
// is several times cheaper per node than the pull.
//
//gridroute:hotpath
func (dp *DP) runPull2(ra, ca int) {
	if dp.sweep.nodeX == nil {
		dp.runPull2NoNode(ra, ca)
		return
	}
	sw := &dp.sweep
	cost, pred := dp.cost, dp.pred
	edgeX, nodeX, bound := sw.edgeX, sw.nodeX, sw.bound
	d := dp.box.D()
	rows, bsR := 1, 0
	if ra >= 0 {
		rows, bsR = dp.wdims[ra], dp.box.stride[ra]
	}
	cols, bsC := dp.wdims[ca], dp.box.stride[ca]
	predR, predC := int8(ra), int8(ca)
	srcW := dp.srcW
	srcRow := srcW / cols
	for i := 0; i < rows; i++ {
		alive := false
		w := i * cols
		bID := dp.winBoxBase + i*bsR
		for c := 0; c < cols; c++ {
			if w == srcW {
				if cost[w] < bound {
					alive = true
				}
				w++
				bID += bsC
				continue
			}
			best, bp := Inf, int8(-1)
			if i > 0 {
				if pc := cost[w-cols]; pc < bound {
					ec := pc + edgeX[(bID-bsR)*d+ra] + nodeX[bID]
					if ec < best {
						best, bp = ec, predR
					}
				}
			}
			if c > 0 {
				if pc := cost[w-1]; pc < bound {
					ec := pc + edgeX[(bID-bsC)*d+ca] + nodeX[bID]
					if ec < best {
						best, bp = ec, predC
					}
				}
			}
			cost[w], pred[w] = best, bp
			if best < bound {
				alive = true
			}
			w++
			bID += bsC
		}
		// Rows before the source's row are legitimately all-Inf — the
		// up-front source write revives row srcRow, so the induction only
		// starts there.
		if !alive && i >= srcRow {
			dp.fillDead((i+1)*cols, dp.wsize)
			return
		}
	}
}

// runPull2NoNode is runPull2 for nil node weights: Raw sketch sessions and
// the space-time packer, which index edge weights only. Column 0 and the
// source's row are peeled so the steady-state inner loop carries no per-node
// boundary, source, or nil checks; dp fields are hoisted into locals because
// stores through cost/pred keep the compiler from proving dp itself is
// unmodified.
//
// Beyond the dead-row cutoff, each row's scan terminates early at the alive
// frontier. A cell is alive when its cost is < bound; a dead cell — Inf or a
// finite cost at/past the bound — is pruned as a predecessor by the bound
// gate, so a cell can only be non-Inf if its vertical or horizontal
// predecessor is alive. Scanning row i left to right, once the column is past
// `revive` (the last alive column of row i−1, or the source's column in its
// row) and the cell just written is dead, no later cell in the row has an
// alive predecessor: the remainder is exactly (Inf, −1) and is bulk-filled.
// On bounded runs the per-offer work shrinks from the window's area to
// roughly the reachable-below-bound region's.
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
	srcW := dp.srcW
	srcRow, srcCol := srcW/cols, srcW%cols
	srcAlive := cost[srcW] < bound
	revive := -1 // last column of the previous row that can revive this one
	for i := 0; i < rows; i++ {
		if i == srcRow && srcAlive && srcCol > revive {
			revive = srcCol
		}
		maxA := -1   // last alive column written in this row
		stop := cols // first column of the row's dead remainder
		w := i * cols
		bID := dp.winBoxBase + i*bsR
		// Column 0: no horizontal predecessor.
		if w == srcW {
			if srcAlive {
				maxA = 0
			}
		} else {
			best, bp := Inf, int8(-1)
			if i > 0 {
				if pc := cost[w-cols]; pc < bound {
					if ec := pc + edgeX[(bID-bsR)*d+ra]; ec < best {
						best, bp = ec, predR
					}
				}
			}
			cost[w], pred[w] = best, bp
			if best < bound {
				maxA = 0
			} else if revive < 0 {
				stop = 1
			}
		}
		w++
		// The inner loops carry the just-written cell in `left` (sparing the
		// cost[w−1] reload) and advance the two edgeX indices by strength
		// reduction: a +1 column step moves the vertical-pull index
		// (bID−bsR)·D+ra and the horizontal-pull index (bID−bsC)·D+ca by
		// bsC·D each.
		left := cost[w-1]
		vE := (bID+bsC-bsR)*d + ra
		hE := bID*d + ca
		step := bsC * d
		switch {
		case stop < cols:
			// Row died at column 0.
		case i == srcRow:
			// The source's row (this also covers a top row holding the
			// source): per-cell source skip, vertical pulls only when a row
			// exists above.
			for c := 1; c < cols; c++ {
				if w == srcW {
					if srcAlive {
						maxA = c
					}
					left = cost[w]
					w++
					vE += step
					hE += step
					continue
				}
				best, bp := Inf, int8(-1)
				if i > 0 {
					if pc := cost[w-cols]; pc < bound {
						if ec := pc + edgeX[vE]; ec < best {
							best, bp = ec, predR
						}
					}
				}
				if left < bound {
					if ec := left + edgeX[hE]; ec < best {
						best, bp = ec, predC
					}
				}
				cost[w], pred[w] = best, bp
				left = best
				if best < bound {
					maxA = c
				} else if c > revive {
					stop = c + 1
					break
				}
				w++
				vE += step
				hE += step
			}
		case i == 0:
			// Top row without the source: horizontal prefix only.
			for c := 1; c < cols; c++ {
				best, bp := Inf, int8(-1)
				if left < bound {
					if ec := left + edgeX[hE]; ec < best {
						best, bp = ec, predC
					}
				}
				cost[w], pred[w] = best, bp
				left = best
				if best < bound {
					maxA = c
				} else if c > revive {
					stop = c + 1
					break
				}
				w++
				hE += step
			}
		default:
			// Steady state: both predecessors exist, the source is
			// elsewhere.
			for c := 1; c < cols; c++ {
				best, bp := Inf, int8(-1)
				if pc := cost[w-cols]; pc < bound {
					if ec := pc + edgeX[vE]; ec < best {
						best, bp = ec, predR
					}
				}
				if left < bound {
					if ec := left + edgeX[hE]; ec < best {
						best, bp = ec, predC
					}
				}
				cost[w], pred[w] = best, bp
				left = best
				if best < bound {
					maxA = c
				} else if c > revive {
					stop = c + 1
					break
				}
				w++
				vE += step
				hE += step
			}
		}
		if stop < cols {
			dp.fillDead(i*cols+stop, (i+1)*cols)
		}
		if maxA < 0 && i >= srcRow {
			// Fully dead row at or past the source's: everything below is
			// dead too.
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
// advanced with an odometer.
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
		bID := dp.winBoxBase + i*dp.box.stride[0]
		w := i * cols
		for c := 0; c < cols; c++ {
			if w == dp.srcW {
				goto next
			}
			{
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
		next:
			w++
			for a := d - 1; a >= 1; a-- {
				off[a]++
				bID += dp.box.stride[a]
				if off[a] < dp.wdims[a] {
					break
				}
				bID -= dp.wdims[a] * dp.box.stride[a]
				off[a] = 0
			}
		}
	}
}

// CostAt returns the lightest-path cost from the source to p, or Inf if p is
// outside the window or unreachable.
//
//gridroute:hotpath
func (dp *DP) CostAt(p []int) float64 {
	if !dp.valid || !dp.inWindow(p) {
		return Inf
	}
	return dp.cost[dp.winIndex(p)]
}

// MinCostRay returns the least cost over the points obtained from p by
// ranging p[axis] over [lo, hi], together with the coordinate achieving it
// (ties resolve to the lowest coordinate, like an ascending CostAt scan with
// a strict comparison). Out-of-window coordinates contribute Inf, and a DP
// whose last run was over an empty window reports (Inf, lo). This is the
// destination-ray scan of both lightest-path oracles, optbound.STPacker and
// sketch route extraction: one strided walk over the window buffer instead
// of a window check and a winIndex dot product per probe.
//
//gridroute:hotpath
func (dp *DP) MinCostRay(p []int, axis, lo, hi int) (best float64, bestAt int) {
	best, bestAt = Inf, lo
	if !dp.valid {
		return best, bestAt
	}
	for i, x := range p {
		if i != axis && (x < dp.winLo[i] || x >= dp.winHi[i]) {
			return best, bestAt
		}
	}
	clo, chi := lo, hi
	if wlo := dp.winLo[axis]; clo < wlo {
		clo = wlo
	}
	if whi := dp.winHi[axis] - 1; chi > whi {
		chi = whi
	}
	if clo > chi {
		return best, bestAt
	}
	str := dp.wstr[axis]
	id := dp.winIndex(p) + (clo-p[axis])*str
	for w := clo; w <= chi; w++ {
		if c := dp.cost[id]; c < best {
			best, bestAt = c, w
		}
		id += str
	}
	return best, bestAt
}

// PathTo reconstructs the lightest path to p. It returns nil when p is
// unreachable. The path is materialized in at most three allocations (Path,
// start coords, axes).
func (dp *DP) PathTo(p []int) *Path {
	var out Path
	if !dp.PathInto(p, &out) {
		return nil
	}
	return &out
}

// PathInto is PathTo writing into a caller-provided Path, reusing its Start
// and Axes slices. It reports false (leaving out untouched) when p is
// unreachable. A warm out (slices grown once) makes reconstruction
// allocation-free — the streaming admit path depends on this.
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
