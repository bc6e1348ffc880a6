package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gridroute/internal/grid"
	"gridroute/internal/ipp"
	"gridroute/internal/lattice"
	"gridroute/internal/spacetime"
	"gridroute/internal/tiling"
)

// randomWeights fills a weight universe the way packers and outage masks
// leave it: zeros (ties), weights grown by a random number of IPP commits
// (x ← x·2^{1/c} + (2^{1/c} − 1)/pmax), arbitrary non-negative values, and
// +Inf masked edges.
func randomWeights(rng *rand.Rand, xs []float64) {
	for i := range xs {
		switch u := rng.Float64(); {
		case u < 0.25:
			xs[i] = 0
		case u < 0.30:
			xs[i] = math.Inf(1)
		case u < 0.70:
			c := float64(1 + rng.Intn(4))
			pmax := float64(4 + rng.Intn(60))
			f := math.Exp2(1 / c)
			x := 0.0
			for k := rng.Intn(20); k >= 0; k-- {
				x = x*f + (f-1)/pmax
			}
			xs[i] = x
		default:
			xs[i] = rng.Float64() * 3
		}
	}
}

// chainCoverage counts the query shapes one (dimension, mode) case reached.
type chainCoverage struct {
	wChain, pastSource, wideRay, spaceChain, single, found, noRoute, overBound, dp int
}

// TestChainRouteMatchesDP is the reference check of the chain path: on
// every prepared query whose window is a chain, chainRoute must agree with
// the DP path (RunFlatBounded + extractRoute on the same query, weights and
// bound) in found, cost bits, tiles, axes and edges. Graphs are random 1-D,
// 2-D and 3-D grids with random tile sides and phases, in both modes;
// weights mix ties, IPP-grown values and +Inf masks; queries mix
// destinations in the source's spatial tile (chains along w, single tiles),
// rays that start past the source or are narrow, and tight tile budgets
// (chains along a space axis). Bounds alternate between +Inf and 1–5, so
// some routes are found only when unbounded.
func TestChainRouteMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	for d := 1; d <= 3; d++ {
		for _, mode := range []Mode{Downscaled, Raw} {
			var cov chainCoverage
			for gi := 0; gi < 25; gi++ {
				checkChainGraph(t, rng, d, mode, &cov)
			}
			name := fmt.Sprintf("d=%d mode=%d", d, mode)
			if cov.wChain == 0 || cov.pastSource == 0 || cov.wideRay == 0 || cov.spaceChain == 0 ||
				cov.single == 0 || cov.found == 0 || cov.noRoute == 0 || cov.overBound == 0 || cov.dp == 0 {
				t.Errorf("%s: a query shape went unexercised: %+v", name, cov)
			}
		}
	}
}

func checkChainGraph(t *testing.T, rng *rand.Rand, d int, mode Mode, cov *chainCoverage) {
	t.Helper()
	dims := make([]int, d)
	for i := range dims {
		dims[i] = 3 + rng.Intn(12/d+3)
	}
	g := grid.New(dims, 1+rng.Intn(4), 1+rng.Intn(4))
	st := spacetime.New(g, int64(8+rng.Intn(40)))
	side := make([]int, d+1)
	phase := make([]int, d+1)
	for i := range side {
		side[i] = 1 + rng.Intn(6)
		phase[i] = rng.Intn(side[i])
	}
	sk := New(st, tiling.New(st.Box, side, phase), mode)
	sess := sk.NewSession()
	xs := make([]float64, sk.Universe())
	wa := d
	var chainOut, dpOut Route
	for q := 0; q < 60; q++ {
		randomWeights(rng, xs)
		src := make(grid.Vec, d)
		dst := make(grid.Vec, d)
		for i := 0; i < d; i++ {
			src[i] = rng.Intn(dims[i])
			if rng.Intn(2) == 0 {
				// Stay inside the source's tile along this axis.
				end := (lattice.FloorDiv(src[i]-phase[i], side[i])+1)*side[i] + phase[i]
				dst[i] = src[i] + rng.Intn(min(end, dims[i])-src[i])
			} else {
				dst[i] = src[i] + rng.Intn(dims[i]-src[i])
			}
		}
		r := &grid.Request{Src: src, Dst: dst, Arrival: int64(rng.Intn(int(st.T) + 1)), Deadline: grid.InfDeadline}
		srcPoint := st.SourcePoint(r)
		wLo, wHi := st.DestRay(r)
		if rng.Intn(3) == 0 {
			wLo += rng.Intn(3 * side[wa])
		}
		if rng.Intn(4) == 0 {
			wHi = wLo + rng.Intn(side[wa])
		}
		maxTiles := 1 + rng.Intn(30)
		if rng.Intn(3) == 0 {
			maxTiles = 1 + rng.Intn(4)
		}
		if !sess.prepareQuery(srcPoint, dst, wLo, wHi, maxTiles) {
			continue
		}
		bound := math.Inf(1)
		if q%2 == 1 {
			bound = float64(1 + q%5)
		}
		found, chain := sess.chainRoute(xs, bound, &chainOut)
		if !chain {
			cov.dp++
			continue
		}
		switch {
		case sess.winHi[wa]-sess.srcTile[wa] > 1:
			cov.wChain++
		case sumExtent(sess) == len(sess.srcTile):
			cov.single++
		default:
			cov.spaceChain++
		}
		if sess.rayLo > sess.srcTile[wa] {
			cov.pastSource++
		}
		if sess.rayHi > sess.rayLo {
			cov.wideRay++
		}
		sess.dp.RunFlatBounded(sess.srcTile, sess.winHi, xs, sk.nodeWeights(xs), bound)
		want := sess.extractRoute(bound, &dpOut)
		if found != want {
			t.Fatalf("d=%d mode=%d %v→%v w∈[%d,%d] maxTiles %d bound %v: chain found=%v, DP found=%v",
				d, mode, src, dst, wLo, wHi, maxTiles, bound, found, want)
		}
		if !found {
			cov.noRoute++
			if unbounded, _ := sess.chainRoute(xs, math.Inf(1), &chainOut); unbounded {
				cov.overBound++
			}
			continue
		}
		cov.found++
		if math.Float64bits(chainOut.Cost) != math.Float64bits(dpOut.Cost) ||
			!slices.Equal(chainOut.Tiles, dpOut.Tiles) || !slices.Equal(chainOut.Axes, dpOut.Axes) ||
			!slices.Equal(chainOut.Edges, dpOut.Edges) {
			t.Fatalf("d=%d mode=%d %v→%v w∈[%d,%d] maxTiles %d bound %v: chain route diverges from DP:\nchain %+v\n   dp %+v",
				d, mode, src, dst, wLo, wHi, maxTiles, bound, chainOut, dpOut)
		}
	}
}

// sumExtent is the total extent of the prepared window over all axes; it
// equals the axis count exactly for a single-tile window.
func sumExtent(s *Session) int {
	n := 0
	for a, lo := range s.srcTile {
		n += s.winHi[a] - lo
	}
	return n
}

// TestLightestRouteSourceOffLattice: a source before the lattice's first
// tile (an arrival before time 0) has no route, in a graph where every
// window is a chain: prepareQuery rejects it, so the chain path never steps
// from a tile the tiling does not hold. A destination past the grid's last
// tile has no route either: prepareQuery rejects it before the DP, which
// solves only windows inside its box and panics on any other.
func TestLightestRouteSourceOffLattice(t *testing.T) {
	g := grid.Line(8, 3, 3)
	st := spacetime.New(g, 40)
	sk := New(st, tiling.New(st.Box, []int{16, 16}, []int{0, 0}), Downscaled)
	pk := ipp.NewDense(50, sk.Cap, sk.Universe())
	r := &grid.Request{Src: grid.Vec{1}, Dst: grid.Vec{5}, Arrival: -100, Deadline: grid.InfDeadline}
	wLo, wHi := st.DestRay(r)
	var out Route
	if sk.NewSession().LightestRouteInto(pk, st.SourcePoint(r), r.Dst, wLo, wHi, 50, &out) {
		t.Fatalf("source off the lattice found a route: %+v", out)
	}

	sk = New(st, tiling.New(st.Box, []int{2, 2}, []int{0, 0}), Downscaled)
	pk = ipp.NewDense(50, sk.Cap, sk.Universe())
	r = &grid.Request{Src: grid.Vec{1}, Dst: grid.Vec{9}, Arrival: 0, Deadline: grid.InfDeadline}
	wLo, wHi = st.DestRay(r)
	if sk.NewSession().LightestRouteInto(pk, st.SourcePoint(r), r.Dst, wLo, wHi, 50, &out) {
		t.Fatalf("destination off the tiling found a route: %+v", out)
	}
}
