// Package tiling partitions the untilted space-time lattice into tiles
// (Sec. 3.3 of Even–Medina): axis-aligned boxes with per-axis side lengths
// and optional phase shifts.
//
// The deterministic algorithm uses cubes of side k = ⌈log₂(1+3·pmax)⌉ with no
// phase shift; the randomized algorithm uses rectangles of height Q (the
// space axis) and length τ (the w axis) with phase shifts (φ_Q, φ_τ) drawn
// uniformly at random (Sec. 7.2). Partial tiles at the boundary are treated
// as augmented with dummy vertices (which are never internal to a routed
// path; the routing code additionally clips to the real lattice).
package tiling

import (
	"gridroute/internal/lattice"
)

// Tiling is a partition of the points of Box into tiles.
type Tiling struct {
	// Box is the underlying point lattice.
	Box *lattice.Box
	// Side is the tile side length per axis (all ≥ 1).
	Side []int
	// Phase is the phase shift per axis, each in [0, Side).
	Phase []int
	// TBox is the box of tile coordinates covering Box.
	TBox *lattice.Box
}

// New builds a tiling of box with the given side lengths and phases.
func New(box *lattice.Box, side, phase []int) *Tiling {
	d := box.D()
	if len(side) != d || len(phase) != d {
		panic("tiling: side/phase dimension mismatch")
	}
	tl := &Tiling{
		Box:   box,
		Side:  append([]int(nil), side...),
		Phase: append([]int(nil), phase...),
	}
	lo := make([]int, d)
	hi := make([]int, d)
	for i := 0; i < d; i++ {
		if side[i] < 1 {
			panic("tiling: side must be ≥ 1")
		}
		if phase[i] < 0 || phase[i] >= side[i] {
			panic("tiling: phase out of range")
		}
		lo[i] = lattice.FloorDiv(box.Lo[i]-phase[i], side[i])
		hi[i] = lattice.FloorDiv(box.Hi[i]-1-phase[i], side[i]) + 1
	}
	tl.TBox = lattice.NewBox(lo, hi)
	return tl
}

// TileOf returns the tile coordinates of point p, writing into out when
// non-nil.
func (tl *Tiling) TileOf(p []int, out []int) []int {
	if out == nil {
		out = make([]int, len(p))
	}
	for i, x := range p {
		out[i] = lattice.FloorDiv(x-tl.Phase[i], tl.Side[i])
	}
	return out
}

// TileID returns the dense tile id of the tile containing p.
func (tl *Tiling) TileID(p []int) int {
	tc := tl.TileOf(p, make([]int, len(p)))
	return tl.TBox.Index(tc)
}

// Origin returns the lower corner (absolute point coordinates) of the tile
// with coordinates tc. For boundary tiles it may lie outside Box (the dummy
// augmentation of partial tiles).
func (tl *Tiling) Origin(tc []int, out []int) []int {
	if out == nil {
		out = make([]int, len(tc))
	}
	for i, c := range tc {
		out[i] = c*tl.Side[i] + tl.Phase[i]
	}
	return out
}

// Offset returns p − origin(tile containing p): the within-tile coordinates,
// each in [0, Side[i]).
func (tl *Tiling) Offset(p []int, out []int) []int {
	if out == nil {
		out = make([]int, len(p))
	}
	for i, x := range p {
		r := (x - tl.Phase[i]) % tl.Side[i]
		if r < 0 {
			r += tl.Side[i]
		}
		out[i] = r
	}
	return out
}

// Quadrant identifies a quarter of a 2-axis tile (d = 1 lines only):
// axis 0 (space, x) splits south/north, axis 1 (w) splits west/east
// (Sec. 7.2, Fig. 8).
type Quadrant int

const (
	SW Quadrant = iota // low x, low w
	SE                 // low x, high w
	NW                 // high x, low w
	NE                 // high x, high w
)

func (q Quadrant) String() string {
	switch q {
	case SW:
		return "SW"
	case SE:
		return "SE"
	case NW:
		return "NW"
	case NE:
		return "NE"
	}
	return "?"
}

// QuadrantOf classifies a point of a 2-axis tiling into its tile quadrant.
// South (resp. west) is the lower half along axis 0 (resp. axis 1); for odd
// sides the extra row/column belongs to the north (resp. east) half.
func (tl *Tiling) QuadrantOf(p []int) Quadrant {
	if len(tl.Side) != 2 {
		panic("tiling: QuadrantOf requires a 2-axis tiling (d = 1)")
	}
	off := tl.Offset(p, make([]int, 2))
	south := off[0] < tl.Side[0]/2
	west := off[1] < tl.Side[1]/2
	switch {
	case south && west:
		return SW
	case south && !west:
		return SE
	case !south && west:
		return NW
	default:
		return NE
	}
}
