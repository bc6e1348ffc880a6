// Package grid models uni-directional d-dimensional grid networks and packet
// requests in the competitive network throughput model of Aiello, Kushilevitz,
// Ostrovsky and Rosén [AKOR03], as used by Even and Medina (SPAA 2011).
//
// A grid has vertex set [ℓ1]×…×[ℓd] (0-based here) and directed edges that
// advance exactly one coordinate by +1. Every edge has capacity c (packets
// per time step) and every node a buffer of size B (packets stored between
// steps). A packet request r = (a, b, t, d) asks to ship one packet from a to
// b, arriving at time t, credited only if delivered at some time ≤ d.
package grid

import (
	"fmt"
	"math"
	"strings"
)

// InfDeadline marks a request without a deadline.
const InfDeadline = math.MaxInt64

// Vec is a point in a d-dimensional grid. Coordinates are 0-based.
type Vec []int

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	w := make(Vec, len(v))
	copy(w, v)
	return w
}

// Sum returns the coordinate sum Σ v_i.
func (v Vec) Sum() int {
	s := 0
	for _, x := range v {
		s += x
	}
	return s
}

// Eq reports whether v == w.
func (v Vec) Eq(w Vec) bool {
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

func (v Vec) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprint(x)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Grid is a uni-directional d-dimensional grid network with uniform link
// capacity C and uniform buffer size B (Sec. 2.2 of the paper).
type Grid struct {
	// Dims holds the side lengths ℓ1..ℓd. All must be ≥ 1.
	Dims []int
	// B is the buffer size of every node (0 means bufferless).
	B int
	// C is the capacity of every link (packets per step), ≥ 1.
	C int

	stride []int
	n      int
}

// New constructs a grid. It panics on invalid parameters; grids are
// configuration, so failing loudly at construction is deliberate.
func New(dims []int, b, c int) *Grid {
	if len(dims) == 0 {
		panic("grid: need at least one dimension")
	}
	if b < 0 {
		panic("grid: negative buffer size")
	}
	if c < 1 {
		panic("grid: link capacity must be ≥ 1")
	}
	g := &Grid{Dims: append([]int(nil), dims...), B: b, C: c}
	g.stride = make([]int, len(dims))
	g.n = 1
	for i := len(dims) - 1; i >= 0; i-- {
		if dims[i] < 1 {
			panic("grid: dimension must be ≥ 1")
		}
		g.stride[i] = g.n
		g.n *= dims[i]
	}
	return g
}

// Line returns a 1-dimensional grid (a uni-directional line) with n nodes.
func Line(n, b, c int) *Grid { return New([]int{n}, b, c) }

// D returns the dimensionality d.
func (g *Grid) D() int { return len(g.Dims) }

// N returns the number of nodes n = Π ℓi.
func (g *Grid) N() int { return g.n }

// Diameter returns the diameter Σ (ℓi − 1): the longest shortest path.
func (g *Grid) Diameter() int {
	d := 0
	for _, l := range g.Dims {
		d += l - 1
	}
	return d
}

// Contains reports whether v is a node of the grid.
func (g *Grid) Contains(v Vec) bool {
	if len(v) != len(g.Dims) {
		return false
	}
	for i, x := range v {
		if x < 0 || x >= g.Dims[i] {
			return false
		}
	}
	return true
}

// Index maps a node to a dense id in [0, N).
func (g *Grid) Index(v Vec) int {
	id := 0
	for i, x := range v {
		if x < 0 || x >= g.Dims[i] {
			panic(fmt.Sprintf("grid: %v out of bounds %v", v, g.Dims))
		}
		id += x * g.stride[i]
	}
	return id
}

// Node maps a dense id back to a node, writing into out if non-nil.
func (g *Grid) Node(id int, out Vec) Vec {
	if out == nil {
		out = make(Vec, len(g.Dims))
	}
	for i := range g.Dims {
		out[i] = id / g.stride[i]
		id %= g.stride[i]
	}
	return out
}

// Dist returns the (unique-length) directed distance Σ (b_i − a_i), or -1 if
// b is not reachable from a (i.e. not coordinate-wise ≥).
func (g *Grid) Dist(a, b Vec) int {
	d := 0
	for i := range a {
		if b[i] < a[i] {
			return -1
		}
		d += b[i] - a[i]
	}
	return d
}

// Request is a packet request r_i = (a_i, b_i, t_i, d_i) (Sec. 2.1).
type Request struct {
	ID      int
	Src     Vec
	Dst     Vec
	Arrival int64
	// Deadline is the last time step at which delivery still counts.
	// InfDeadline means no deadline.
	Deadline int64
}

// HasDeadline reports whether the request carries a finite deadline.
func (r *Request) HasDeadline() bool { return r.Deadline != InfDeadline }

// Feasible reports whether the request can possibly be served on g: source
// and destination are nodes, dst is reachable, and the deadline leaves enough
// time for the shortest route (d_i ≥ t_i + dist(a_i, b_i)).
func (r *Request) Feasible(g *Grid) bool {
	if !g.Contains(r.Src) || !g.Contains(r.Dst) {
		return false
	}
	d := g.Dist(r.Src, r.Dst)
	if d < 0 {
		return false
	}
	if r.Deadline != InfDeadline && r.Deadline < r.Arrival+int64(d) {
		return false
	}
	return true
}

func (r *Request) String() string {
	if r.Deadline == InfDeadline {
		return fmt.Sprintf("r%d %v->%v @%d", r.ID, r.Src, r.Dst, r.Arrival)
	}
	return fmt.Sprintf("r%d %v->%v @%d dl%d", r.ID, r.Src, r.Dst, r.Arrival, r.Deadline)
}

// ValidateAll checks that every request in reqs is feasible on g and that
// arrivals are non-decreasing (the online order). It returns the first
// offending request index, or -1 if all are valid.
func ValidateAll(g *Grid, reqs []Request) int {
	var last int64 = math.MinInt64
	for i := range reqs {
		if !reqs[i].Feasible(g) {
			return i
		}
		if reqs[i].Arrival < last {
			return i
		}
		last = reqs[i].Arrival
	}
	return -1
}

// MaxArrival returns the largest arrival time among reqs (0 if empty).
func MaxArrival(reqs []Request) int64 {
	var m int64
	for i := range reqs {
		if reqs[i].Arrival > m {
			m = reqs[i].Arrival
		}
	}
	return m
}
