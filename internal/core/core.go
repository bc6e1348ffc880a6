// Package core implements the paper's two headline algorithms:
//
//   - the deterministic, centralized, preemptive online packet-routing
//     framework for uni-directional d-dimensional grids (Algorithm 1,
//     Sec. 4–6), including deadlines, the bufferless special case (Thm 11)
//     and the large-capacity variant (Thm 13); and
//   - the randomized O(log n)-competitive, non-preemptive algorithm for
//     uni-directional lines (Sec. 7), with its large-buffer (Sec. 7.7) and
//     small-buffer/large-capacity (Sec. 7.8) regime variants.
//
// Both reduce packet routing to online integral path packing over a sketch
// graph of space-time tiles and then perform detailed routing; see the
// package docs of internal/sketch, internal/ipp and internal/detroute.
package core

import (
	"math"

	"gridroute/internal/grid"
	"gridroute/internal/ipp"
)

// PMaxDet returns the paper's maximum-path-length parameter for the
// deterministic algorithm (Sec. 3.6.1): 2·diam(G)·(1 + n·(B/c + d)) for
// buffered grids, and diam(G) when B = 0 (paths cannot wait).
func PMaxDet(g *grid.Grid) int {
	if g.B == 0 {
		return g.Diameter()
	}
	bc := float64(g.B) / float64(g.C)
	// float64(...) rounds the product before the add: no fused multiply-add.
	pm := 2 * float64(g.Diameter()) * (1 + float64(float64(g.N())*(bc+float64(g.D()))))
	return int(math.Ceil(pm))
}

// TileSideDet returns k = ⌈log₂(1 + 3·pmax)⌉ (Sec. 5, Parameters).
func TileSideDet(pmax int) int { return ipp.K(pmax) }
