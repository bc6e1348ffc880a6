package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gridroute/internal/grid"
	"gridroute/internal/ipp"
	"gridroute/internal/spacetime"
	"gridroute/internal/tiling"
)

// maskCoverage counts the query shapes one (dimension, mode) case reached.
type maskCoverage struct {
	masked, found, diverted, blockedOut, dup, outside, empty, chain, dp int
}

// TestLightestRouteMaskedMatchesMaskedCopy checks the in-place outage mask
// against its definition. LightestRouteMasked on a packer must answer
// exactly as LightestRouteInto does on a twin packer whose weights are a
// copy with +Inf at every blocked id: found, tiles, axes, edges and the bits
// of the cost. An empty mask must answer as the unmasked query. The
// packer's weights must be bit-identical before and after every masked
// query. Graphs are random 1-D, 2-D and 3-D grids in both modes, with
// weights that start random or zero and evolve by committing the masked
// routes. Blocked sets take edges of the unmasked route (so the mask
// diverts or rejects it), ids anywhere in the universe (most outside the
// query's window) and a repeated id.
func TestLightestRouteMaskedMatchesMaskedCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	for d := 1; d <= 3; d++ {
		for _, mode := range []Mode{Downscaled, Raw} {
			var cov maskCoverage
			for gi := 0; gi < 12; gi++ {
				checkMaskGraph(t, rng, d, mode, &cov)
			}
			if cov.masked == 0 || cov.found == 0 || cov.diverted == 0 || cov.blockedOut == 0 ||
				cov.dup == 0 || cov.outside == 0 || cov.empty == 0 || cov.chain == 0 || cov.dp == 0 {
				t.Errorf("d=%d mode=%d: a query shape went unexercised: %+v", d, mode, cov)
			}
		}
	}
}

func checkMaskGraph(t *testing.T, rng *rand.Rand, d int, mode Mode, cov *maskCoverage) {
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
		side[i] = 1 + rng.Intn(4)
		phase[i] = rng.Intn(side[i])
	}
	sk := New(st, tiling.New(st.Box, side, phase), mode)
	const pmax = 40
	pk := ipp.NewDense(pmax, sk.Cap, sk.Universe())
	twin := ipp.NewDense(pmax, sk.Cap, sk.Universe())
	if rng.Intn(2) == 0 {
		randomWeights(rng, pk.Weights())
	}
	sess, ref := sk.NewSession(), sk.NewSession()
	before := make([]float64, sk.Universe())
	var plain, got, want Route
	var blocked []ipp.EdgeID
	for q := 0; q < 40; q++ {
		src := make(grid.Vec, d)
		dst := make(grid.Vec, d)
		for i := range src {
			src[i] = rng.Intn(dims[i])
			dst[i] = src[i] + rng.Intn(dims[i]-src[i])
		}
		r := &grid.Request{Src: src, Dst: dst, Arrival: int64(rng.Intn(int(st.T) + 1)), Deadline: grid.InfDeadline}
		srcPoint := st.SourcePoint(r)
		wLo, wHi := st.DestRay(r)
		maxTiles := 1 + rng.Intn(pmax/2)
		query := fmt.Sprintf("d=%d mode=%d q=%d %v→%v w∈[%d,%d] maxTiles %d", d, mode, q, src, dst, wLo, wHi, maxTiles)
		plainOK := ref.LightestRouteInto(pk, srcPoint, dst, wLo, wHi, maxTiles, &plain)

		blocked = blocked[:0]
		if q%4 != 0 {
			if plainOK {
				for _, e := range plain.Edges {
					if rng.Intn(3) == 0 {
						blocked = append(blocked, e)
					}
				}
			}
			for n := rng.Intn(4); n > 0; n-- {
				blocked = append(blocked, ipp.EdgeID(rng.Intn(sk.Universe())))
			}
			if len(blocked) > 0 {
				blocked = append(blocked, blocked[rng.Intn(len(blocked))])
				cov.dup++
			}
		}
		if sess.prepareQuery(srcPoint, dst, wLo, wHi, maxTiles) {
			for _, e := range blocked {
				if !sess.inWindow(e) {
					cov.outside++
				}
			}
			if _, chain := sess.chainRoute(pk.Weights(), math.Inf(1), &got); chain {
				cov.chain++
			} else {
				cov.dp++
			}
		}

		copy(before, pk.Weights())
		xs := twin.Weights()
		copy(xs, before)
		for _, e := range blocked {
			xs[e] = math.Inf(1)
		}
		wantOK := ref.LightestRouteInto(twin, srcPoint, dst, wLo, wHi, maxTiles, &want)
		gotOK := sess.LightestRouteMasked(pk, srcPoint, dst, wLo, wHi, maxTiles, blocked, &got)
		for i, x := range pk.Weights() {
			if math.Float64bits(x) != math.Float64bits(before[i]) {
				t.Fatalf("%s blocked %v: weight %d is %v after the masked query, was %v", query, blocked, i, x, before[i])
			}
		}
		if len(blocked) == 0 {
			cov.empty++
			if gotOK != plainOK || (gotOK && !sameRoute(&got, &plain)) {
				t.Fatalf("%s: empty mask diverges from the unmasked query: ok %v/%v\nmasked %+v\n plain %+v", query, gotOK, plainOK, got, plain)
			}
		} else {
			cov.masked++
		}
		if gotOK != wantOK {
			t.Fatalf("%s blocked %v: masked found=%v, masked copy found=%v", query, blocked, gotOK, wantOK)
		}
		if plainOK && (gotOK != plainOK || !sameRoute(&got, &plain)) {
			cov.diverted++
		}
		if !gotOK {
			if plainOK {
				cov.blockedOut++
			}
			pk.Offer(nil, 0)
			continue
		}
		cov.found++
		if !sameRoute(&got, &want) {
			t.Fatalf("%s blocked %v: masked route diverges from the masked copy's:\n got %+v\nwant %+v", query, blocked, got, want)
		}
		pk.Offer(got.Edges, got.Cost)
	}
}

// sameRoute compares two routes field by field, the cost by its bits.
func sameRoute(a, b *Route) bool {
	return slices.Equal(a.Tiles, b.Tiles) && slices.Equal(a.Axes, b.Axes) &&
		slices.Equal(a.Edges, b.Edges) && math.Float64bits(a.Cost) == math.Float64bits(b.Cost)
}

// inWindow reports whether edge id e leaves a tile of the prepared window.
func (s *Session) inWindow(e ipp.EdgeID) bool {
	tile, _, _ := s.g.DecodeEdge(e)
	pt := s.g.TileCoords(tile, make([]int, s.g.axes))
	for a := range pt {
		if pt[a] < s.srcTile[a] || pt[a] >= s.winHi[a] {
			return false
		}
	}
	return true
}

// TestSnapshotSolveParity checks that an empty outage mask routes exactly
// like no mask under evolving weights: on a Downscaled line, for every
// query, LightestRouteMasked with a nil and with an empty blocked list must
// answer as LightestRouteInto on the same packer (found, tiles, axes, edges
// and the bits of the cost), and the route found is committed before the
// next query. The name is the deleted snapshot solve's, which held this
// parity before the mask moved into the live weights.
func TestSnapshotSolveParity(t *testing.T) {
	st, down, _ := lineSetup(32, 3, 3, 200, 4)
	pk := ipp.NewDense(50, down.Cap, down.Universe())
	live := down.NewSession()
	masked := down.NewSession()
	empty := []ipp.EdgeID{}
	var want, got Route
	found := 0
	for q := 0; q < 60; q++ {
		r := &grid.Request{
			Src: grid.Vec{q % 8}, Dst: grid.Vec{8 + q%20},
			Arrival: int64(q / 2), Deadline: grid.InfDeadline,
		}
		src := st.SourcePoint(r)
		wLo, wHi := st.DestRay(r)
		liveOK := live.LightestRouteInto(pk, src, r.Dst, wLo, wHi, 50, &want)
		for _, blocked := range [][]ipp.EdgeID{nil, empty} {
			maskOK := masked.LightestRouteMasked(pk, src, r.Dst, wLo, wHi, 50, blocked, &got)
			if liveOK != maskOK {
				t.Fatalf("q %d blocked %#v: live ok=%v, masked ok=%v", q, blocked, liveOK, maskOK)
			}
			if liveOK && !sameRoute(&got, &want) {
				t.Fatalf("q %d blocked %#v: masked route diverges:\n got %+v\nwant %+v", q, blocked, got, want)
			}
		}
		if !liveOK {
			pk.Offer(nil, 0)
			continue
		}
		found++
		pk.Offer(want.Edges, want.Cost)
	}
	if found == 0 {
		t.Fatal("no query found a route; parity exercised nothing")
	}
}

// TestSnapshotWindowCopiesOnlyWindow checks the O(window) contract that
// lets the mask work on the live weights without a copy: a query reads
// only the weights of edges leaving a tile of its prepared window. Every
// edge gets a distinctive weight. Masking every id outside the window, the
// interior-edge tail in Downscaled mode included, must leave the route
// exactly as the unmasked query found it; masking every id inside the
// window must leave no route, since each route crosses its source tile's
// interior edge. Both masked queries must leave every weight bit-identical.
// The name is the deleted snapshotWindow's, which copied only the window.
func TestSnapshotWindowCopiesOnlyWindow(t *testing.T) {
	st, down, _ := lineSetup(32, 3, 3, 200, 4)
	pk := ipp.NewDense(50, down.Cap, down.Universe())
	sess := down.NewSession()

	xs := pk.Weights()
	for i := range xs {
		xs[i] = float64(i) + 0.5
	}
	before := slices.Clone(xs)

	r := &grid.Request{Src: grid.Vec{9}, Dst: grid.Vec{20}, Arrival: 4, Deadline: grid.InfDeadline}
	src := st.SourcePoint(r)
	wLo, wHi := st.DestRay(r)
	var want, got Route
	if !sess.LightestRouteInto(pk, src, r.Dst, wLo, wHi, 50, &want) {
		t.Fatal("unmasked query found no route")
	}
	var inside, outside []ipp.EdgeID
	for id := 0; id < down.Universe(); id++ {
		if e := ipp.EdgeID(id); sess.inWindow(e) {
			inside = append(inside, e)
		} else {
			outside = append(outside, e)
		}
	}
	if len(inside) == 0 || len(outside) == 0 {
		t.Fatalf("degenerate window (inside=%d outside=%d); contract not exercised", len(inside), len(outside))
	}

	for _, c := range []struct {
		name    string
		blocked []ipp.EdgeID
		wantOK  bool
	}{{"outside", outside, true}, {"inside", inside, false}} {
		ok := sess.LightestRouteMasked(pk, src, r.Dst, wLo, wHi, 50, c.blocked, &got)
		for i, x := range xs {
			if math.Float64bits(x) != math.Float64bits(before[i]) {
				t.Fatalf("%s mask: weight %d is %v after the query, was %v", c.name, i, x, before[i])
			}
		}
		if ok != c.wantOK {
			t.Fatalf("%s mask: found=%v, want %v", c.name, ok, c.wantOK)
		}
		if ok && !sameRoute(&got, &want) {
			t.Fatalf("%s mask changed the route:\n got %+v\nwant %+v", c.name, got, want)
		}
	}
}
