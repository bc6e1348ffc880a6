// Package baseline implements the comparison algorithms of Table 1 of
// Even–Medina: the greedy policy (whose competitive ratio on lines is
// Ω(√n) for B ≥ 2 [AKOR03]) and the nearest-to-go policy (optimal on
// bufferless lines, Prop. 12; Θ̃(n^{2/3})-competitive on uni-directional
// 2-dimensional grids with one-bend routing [AKK09]).
//
// Both are local policies executed by the netsim policy engine: packets are
// always injected and compete for links and buffers by priority; on grids
// they follow dimension-order (one-bend, for d = 2) routes.
package baseline

import (
	"gridroute/internal/grid"
	"gridroute/internal/netsim"
)

// dimensionOrder picks the first axis along which the packet still has to
// travel: one-bend routing on 2-d grids, e-cube routing in general.
func dimensionOrder(g *grid.Grid, p *netsim.Packet) int {
	for a := 0; a < g.D(); a++ {
		if p.Pos[a] < p.Req.Dst[a] {
			return a
		}
	}
	return -1
}

// Greedy is the FIFO greedy policy: all packets are injected, oldest packet
// first on every contended resource.
type Greedy struct{}

// Name implements netsim.Policy.
func (Greedy) Name() string { return "greedy" }

// Priority implements netsim.Policy: first-in, first-out.
func (Greedy) Priority(p *netsim.Packet, now int64) int64 { return p.InjectedAt }

// NextAxis implements netsim.Policy.
func (Greedy) NextAxis(g *grid.Grid, p *netsim.Packet) int { return dimensionOrder(g, p) }

// NearestToGo prefers the packet with the least remaining distance
// ([AKOR03]; the detailed-routing interval packing of Sec. 5.2.1 "is, in
// fact, a nearest-to-go routing policy").
type NearestToGo struct{}

// Name implements netsim.Policy.
func (NearestToGo) Name() string { return "nearest-to-go" }

// Priority implements netsim.Policy: remaining L1 distance, FIFO tie-break
// via injection time in the low bits.
func (NearestToGo) Priority(p *netsim.Packet, now int64) int64 {
	rem := int64(0)
	for a := range p.Pos {
		rem += int64(p.Req.Dst[a] - p.Pos[a])
	}
	return rem<<20 | (p.InjectedAt & 0xfffff)
}

// NextAxis implements netsim.Policy.
func (NearestToGo) NextAxis(g *grid.Grid, p *netsim.Packet) int { return dimensionOrder(g, p) }
