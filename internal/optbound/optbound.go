// Package optbound produces the OPT certificates used by the benchmark
// harness. Exact integral OPT for online packet routing is NP-hard in
// general, so competitive ratios are reported against:
//
//  1. DualUpperBound — a certified upper bound on the optimal fractional
//     throughput over the simulated horizon, obtained by running the
//     Theorem 1 primal–dual packer directly on the space-time graph with
//     the true capacities (B, c) and reading off the feasible primal
//     covering value Σ c(e)·x_e + Σ z_i (weak duality, Appendix E). The
//     paper itself compares against the fractional optimum (Prop. 5).
//     The horizon T is a simulation window: the packer sees the space-time
//     graph up to T only, and every algorithm it is compared with runs
//     over the same window. Its lightest-path oracle is a session of
//     sketch.SpaceTime, the Raw sketch over unit tiles, whose capacities
//     are exactly (B, c).
//  2. ExactBufferlessLine — exact OPT for B = 0 lines, where each request
//     is an interval in an independent column of the untilted lattice and
//     OPT decomposes into per-column c-machine interval scheduling
//     (the setting of Prop. 12).
//  3. ExactTiny — exhaustive search for very small instances (test oracle).
//
// The same Algorithm 3 step over a space-time graph with capacities scaled
// down by k is the Theorem 13 algorithm (core.RunLargeCapacity).
package optbound

import (
	"math"
	"sort"

	"gridroute/internal/grid"
	"gridroute/internal/ipp"
	"gridroute/internal/sketch"
	"gridroute/internal/spacetime"
)

// DualUpperBound offers every request to a true-capacity packer over the
// space-time graph and returns (a) the certified primal upper bound on the
// fractional OPT within the horizon, and (b) the number of requests the
// packer accepted. That count is no lower bound on OPT: Algorithm 3 keeps
// edge loads within log₂(1+3·pmax)·c(e), not c(e). Theorem 1 gives
// upper ≤ 2·accepted.
func DualUpperBound(g *grid.Grid, reqs []grid.Request, T int64) (upper float64, accepted int) {
	st := spacetime.New(g, T)
	sk := sketch.SpaceTime(st)
	// Any path within the box fits this bound.
	pmax := g.Diameter() + int(T) + 1
	pk := ipp.NewDense(pmax, sk.Cap, sk.Universe())
	sess := sk.NewSession()
	var route sketch.Route
	d := g.D()
	src := make([]int, d+1)
	for i := range reqs {
		r := &reqs[i]
		st.ToLattice(r.Src, r.Arrival, src)
		wLo, wHi := st.DestRay(r)
		if g.B == 0 {
			// Bufferless: the only reachable copy shares the source's w.
			wHi = src[d]
		}
		// A path of pmax edges visits pmax+1 unit tiles.
		sess.Offer(pk, src, r.Dst, wLo, wHi, pmax+1, &route)
	}
	return pk.PrimalValue(), pk.Accepted()
}

// ExactBufferlessLine computes the exact optimal throughput for a
// uni-directional line with B = 0 (Prop. 12 setting). Each request occupies
// the interval (a_i, b_i) of its fixed column w = t_i − a_i, and columns are
// independent; per column, OPT is c-machine interval scheduling, solved
// exactly by the greedy over intervals sorted by right endpoint that
// assigns each interval to the compatible machine with the latest finishing
// time.
func ExactBufferlessLine(g *grid.Grid, reqs []grid.Request) int {
	if g.D() != 1 || g.B != 0 {
		panic("optbound: ExactBufferlessLine requires a bufferless line")
	}
	type iv struct{ lo, hi int }
	cols := make(map[int][]iv)
	for i := range reqs {
		r := &reqs[i]
		w := int(r.Arrival) - r.Src[0]
		cols[w] = append(cols[w], iv{r.Src[0], r.Dst[0]})
	}
	total := 0
	for _, ivs := range cols {
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].hi < ivs[b].hi })
		// Finishing coordinate per machine. A free machine ends at
		// MinInt+1, strictly above the search's starting bestEnd, so it is
		// found; both fit in int on 32-bit targets.
		machines := make([]int, g.C)
		for i := range machines {
			machines[i] = math.MinInt + 1
		}
		for _, v := range ivs {
			// Latest compatible machine (open intervals: endpoints may touch).
			bestM, bestEnd := -1, math.MinInt
			for m, end := range machines {
				if end <= v.lo && end > bestEnd {
					bestM, bestEnd = m, end
				}
			}
			if bestM >= 0 {
				machines[bestM] = v.hi
				total++
			}
		}
	}
	return total
}

// ExactTiny exhaustively computes the optimal throughput for very small
// instances by enumerating candidate space-time paths per request and
// searching over assignments. It returns (opt, true) on success or
// (0, false) when the instance exceeds the enumeration limits.
func ExactTiny(g *grid.Grid, reqs []grid.Request, T int64, maxPathsPerReq, maxReqs int) (int, bool) {
	if len(reqs) > maxReqs {
		return 0, false
	}
	st := spacetime.New(g, T)
	d := g.D()
	// Enumerate monotone lattice paths per request.
	paths := make([][][]ipp.EdgeID, len(reqs))
	for i := range reqs {
		r := &reqs[i]
		src := st.SourcePoint(r)
		wLo, wHi := st.DestRay(r)
		if wLo < src[d] {
			wLo = src[d]
		}
		if g.B == 0 {
			wHi = src[d]
		}
		var out [][]ipp.EdgeID
		var cur []ipp.EdgeID
		pos := append([]int(nil), src...)
		overflow := false
		var dfs func()
		dfs = func() {
			if overflow {
				return
			}
			atDst := true
			for a := 0; a < d; a++ {
				if pos[a] != r.Dst[a] {
					atDst = false
					break
				}
			}
			if atDst && pos[d] >= wLo && pos[d] <= wHi {
				if len(out) >= maxPathsPerReq {
					overflow = true
					return
				}
				out = append(out, append([]ipp.EdgeID(nil), cur...))
				// Arriving earlier dominates arriving later with the same
				// spatial route only when capacities bite; keep exploring.
			}
			for a := 0; a <= d; a++ {
				if a < d && pos[a] >= r.Dst[a] {
					continue
				}
				if a == d && (g.B == 0 || pos[d] >= wHi) {
					continue
				}
				id := st.Box.Index(pos)
				cur = append(cur, ipp.EdgeID(id*(d+1)+a))
				pos[a]++
				dfs()
				pos[a]--
				cur = cur[:len(cur)-1]
			}
		}
		dfs()
		if overflow {
			return 0, false
		}
		paths[i] = out
	}

	// The search mutates per-edge usage on every branch; a flat slice over
	// the box's edge universe keeps that O(1) with no hashing.
	use := make([]int, st.Box.Size()*(d+1))
	capOf := func(e ipp.EdgeID) int {
		if int(e)%(d+1) == d {
			return g.B
		}
		return g.C
	}
	best := 0
	var rec func(i, served int)
	rec = func(i, served int) {
		if served+len(reqs)-i <= best {
			return
		}
		if i == len(reqs) {
			if served > best {
				best = served
			}
			return
		}
		for _, p := range paths[i] {
			ok := true
			for _, e := range p {
				if use[e]+1 > capOf(e) {
					ok = false
					break
				}
			}
			if ok {
				for _, e := range p {
					use[e]++
				}
				rec(i+1, served+1)
				for _, e := range p {
					use[e]--
				}
			}
		}
		rec(i+1, served)
	}
	rec(0, 0)
	return best, true
}
