// Package spacetime implements the space-time transformation of a grid
// network (Sec. 3.1 of Even–Medina) together with the untilting automorphism
// q(x₁,…,x_d,t) = (x₁,…,x_d, t − Σxᵢ) (Sec. 3.2).
//
// In untilted coordinates the space-time graph of a d-dimensional
// uni-directional grid becomes a (d+1)-dimensional box lattice:
//
//   - axes 0..d-1 are the space axes; a +1 step along axis i is a packet
//     transmission along a grid link (an E0 edge, capacity c), taking one
//     time step;
//   - axis d is w = t − Σxᵢ; a +1 step along it is the packet being stored
//     in its current node's buffer for one time step (an E1 edge, capacity B).
//
// Real time is recovered as t = w + Σxᵢ. All copies of a grid node v form the
// w-ray {(v, w)}, which is where sink nodes attach (Sec. 3.1, Sec. 5.4).
package spacetime

import (
	"gridroute/internal/grid"
	"gridroute/internal/lattice"
)

// Graph is the untilted space-time graph of a grid over the finite horizon
// [0, T]. It is infinite in the paper; the horizon is a simulation window and
// all OPT certificates are computed over the same window (see DESIGN.md §2).
type Graph struct {
	G *grid.Grid
	// T is the last simulated time step (inclusive).
	T int64
	// Box is the untilted lattice: axes 0..d-1 spatial with extents ℓᵢ, axis
	// d is w ∈ [−diam(G), T].
	Box *lattice.Box
}

// New builds the untilted space-time graph of g with horizon T.
func New(g *grid.Grid, T int64) *Graph {
	d := g.D()
	lo := make([]int, d+1)
	hi := make([]int, d+1)
	for i := 0; i < d; i++ {
		lo[i] = 0
		hi[i] = g.Dims[i]
	}
	lo[d] = -g.Diameter()
	hi[d] = int(T) + 1
	return &Graph{G: g, T: T, Box: lattice.NewBox(lo, hi)}
}

// D returns the dimension d of the underlying grid.
func (st *Graph) D() int { return st.G.D() }

// WAxis returns the index of the w (buffer) axis.
func (st *Graph) WAxis() int { return st.G.D() }

// Cap returns the capacity of edges along the given lattice axis: c for
// space axes (E0), B for the w axis (E1).
func (st *Graph) Cap(axis int) int {
	if axis == st.G.D() {
		return st.G.B
	}
	return st.G.C
}

// ToLattice converts (node, t) to untilted lattice coordinates, writing into
// out when non-nil.
func (st *Graph) ToLattice(v grid.Vec, t int64, out []int) []int {
	d := st.G.D()
	if out == nil {
		out = make([]int, d+1)
	}
	s := 0
	for i := 0; i < d; i++ {
		out[i] = v[i]
		s += v[i]
	}
	out[d] = int(t) - s
	return out
}

// FromLattice converts an untilted lattice point back to (node, t).
func (st *Graph) FromLattice(p []int, out grid.Vec) (grid.Vec, int64) {
	d := st.G.D()
	if out == nil {
		out = make(grid.Vec, d)
	}
	s := 0
	for i := 0; i < d; i++ {
		out[i] = p[i]
		s += p[i]
	}
	return out, int64(p[d] + s)
}

// TimeOf returns the real time t = w + Σxᵢ of a lattice point.
func TimeOf(p []int) int64 {
	var s int64
	for _, x := range p {
		s += int64(x)
	}
	return s
}

// SourcePoint returns the lattice point of a request's injection (aᵢ, tᵢ).
func (st *Graph) SourcePoint(r *grid.Request) []int {
	return st.ToLattice(r.Src, r.Arrival, nil)
}

// DestRay returns the inclusive w-range [wLo, wHi] of lattice points
// (r.Dst, w) that are valid delivery copies of the destination: the copy time
// t′ = w + Σbᵢ must satisfy tᵢ ≤ t′ ≤ min(dᵢ, T). An empty range is reported
// by wLo > wHi.
func (st *Graph) DestRay(r *grid.Request) (wLo, wHi int) {
	sumB := r.Dst.Sum()
	wLo = int(r.Arrival) - sumB
	hiT := st.T
	if r.Deadline != grid.InfDeadline && r.Deadline < hiT {
		hiT = r.Deadline
	}
	wHi = int(hiT) - sumB
	// Clip to the box.
	d := st.G.D()
	if wLo < st.Box.Lo[d] {
		wLo = st.Box.Lo[d]
	}
	if wHi > st.Box.Hi[d]-1 {
		wHi = st.Box.Hi[d] - 1
	}
	return wLo, wHi
}

// OutageWindow maps a node outage over the real-time interval [from, to) to
// the inclusive w-range of the node's lattice copies: the copy of node v at
// real time t sits at w = t − Σvᵢ, so the failed copies occupy
// w ∈ [from − Σv, to − Σv), clipped to the box. ok is false when the clipped
// range is empty (the outage lies entirely outside the horizon).
func (st *Graph) OutageWindow(v grid.Vec, from, to int64) (wLo, wHi int, ok bool) {
	s := v.Sum()
	wLo = int(from) - s
	wHi = int(to-1) - s
	d := st.G.D()
	if wLo < st.Box.Lo[d] {
		wLo = st.Box.Lo[d]
	}
	if wHi > st.Box.Hi[d]-1 {
		wHi = st.Box.Hi[d] - 1
	}
	return wLo, wHi, wLo <= wHi
}

// Move is one step of a packet schedule. Values 0..d-1 transmit along the
// corresponding grid axis; Hold keeps the packet buffered for a step.
type Move = int8

// Hold is the buffered move.
const Hold Move = -1

// Schedule is an explicit space-time route of a single packet: starting at
// (Src, StartT), each move takes one time step.
type Schedule struct {
	Req    *grid.Request
	Src    grid.Vec
	StartT int64
	Moves  []Move
}

// EndState returns the final node and time of the schedule.
func (s *Schedule) EndState() (grid.Vec, int64) {
	v := s.Src.Clone()
	for _, m := range s.Moves {
		if m >= 0 {
			v[m]++
		}
	}
	return v, s.StartT + int64(len(s.Moves))
}

// Delivers reports whether the schedule ends at the request's destination in
// time (arrival time ≤ deadline).
func (s *Schedule) Delivers() bool {
	v, t := s.EndState()
	if !v.Eq(s.Req.Dst) {
		return false
	}
	return s.Req.Deadline == grid.InfDeadline || t <= s.Req.Deadline
}

// PathToSchedule converts an untilted lattice path into a packet schedule:
// space-axis steps become transmissions, w steps become holds.
func (st *Graph) PathToSchedule(r *grid.Request, p *lattice.Path) *Schedule {
	d := st.G.D()
	node, t := st.FromLattice(p.Start, nil)
	s := &Schedule{Req: r, Src: node, StartT: t, Moves: make([]Move, 0, len(p.Axes))}
	for _, a := range p.Axes {
		if int(a) == d {
			s.Moves = append(s.Moves, Hold)
		} else {
			s.Moves = append(s.Moves, Move(a))
		}
	}
	return s
}

// ScheduleToPath converts a schedule back into an untilted lattice path.
func (st *Graph) ScheduleToPath(s *Schedule) *lattice.Path {
	d := st.G.D()
	p := &lattice.Path{Start: st.ToLattice(s.Src, s.StartT, nil)}
	p.Axes = make([]uint8, 0, len(s.Moves))
	for _, m := range s.Moves {
		if m == Hold {
			p.Axes = append(p.Axes, uint8(d))
		} else {
			p.Axes = append(p.Axes, uint8(m))
		}
	}
	return p
}

// SuggestHorizon returns a horizon comfortably larger than the last arrival
// plus the worst-case useful route length for the workload: maxArrival +
// slack·(diam + diam·B/c) with slack ≥ 1.
func SuggestHorizon(g *grid.Grid, reqs []grid.Request, slack int) int64 {
	if slack < 1 {
		slack = 1
	}
	bc := 1
	if g.C > 0 {
		bc = (g.B + g.C - 1) / g.C
		if bc < 1 {
			bc = 1
		}
	}
	route := int64(g.Diameter() * (1 + bc))
	return grid.MaxArrival(reqs) + int64(slack)*route + 4
}
