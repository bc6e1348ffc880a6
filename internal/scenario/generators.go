package scenario

// This file holds the raw request generators: random traffic for
// throughput experiments and the adversarial constructions behind the
// lower bounds cited in Table 1 of Even–Medina. They were ported verbatim
// from the former internal/workload package; the registered scenarios in
// builtin.go (and the other per-family files) wrap them behind typed
// parameter specs. Tests and experiments may also call them directly.

import (
	"cmp"
	"math/rand"
	"slices"

	"gridroute/internal/grid"
)

// sortReqs orders requests by arrival (stable) and reassigns IDs — the
// online arrival order every algorithm expects. Many generators already
// emit arrival order, and then the sort is skipped.
func sortReqs(reqs []grid.Request) []grid.Request {
	byArrival := func(a, b grid.Request) int { return cmp.Compare(a.Arrival, b.Arrival) }
	if !slices.IsSortedFunc(reqs, byArrival) {
		slices.SortStableFunc(reqs, byArrival)
	}
	for i := range reqs {
		reqs[i].ID = i
	}
	return reqs
}

// randomDstFrom draws a uniformly random reachable destination from node
// (one Intn per axis, so generator streams stay stable), reporting false
// when the draw degenerates to node itself (always the case at the top
// corner).
func randomDstFrom(g *grid.Grid, node grid.Vec, rng *rand.Rand) (grid.Vec, bool) {
	dst := make(grid.Vec, g.D())
	ok := false
	for a := 0; a < g.D(); a++ {
		dst[a] = node[a] + rng.Intn(g.Dims[a]-node[a])
		if dst[a] > node[a] {
			ok = true
		}
	}
	return dst, ok
}

// Uniform draws numReq requests with uniformly random source, a uniformly
// random reachable destination, and arrivals uniform in [0, maxT].
func Uniform(g *grid.Grid, numReq int, maxT int64, rng *rand.Rand) []grid.Request {
	reqs := make([]grid.Request, 0, numReq)
	d := g.D()
	for len(reqs) < numReq {
		src := make(grid.Vec, d)
		dst := make(grid.Vec, d)
		for a := 0; a < d; a++ {
			src[a] = rng.Intn(g.Dims[a])
			dst[a] = src[a] + rng.Intn(g.Dims[a]-src[a])
		}
		if src.Eq(dst) {
			continue
		}
		reqs = append(reqs, grid.Request{
			Src: src, Dst: dst,
			Arrival:  rng.Int63n(maxT + 1),
			Deadline: grid.InfDeadline,
		})
	}
	return sortReqs(reqs)
}

// Saturating injects bursts at every node each round so that total demand
// exceeds network capacity by roughly the given factor — the regime where
// admission control matters.
func Saturating(g *grid.Grid, rounds int, burst int, rng *rand.Rand) []grid.Request {
	var reqs []grid.Request
	d := g.D()
	node := make(grid.Vec, d)
	for t := 0; t < rounds; t++ {
		for id := 0; id < g.N(); id++ {
			g.Node(id, node)
			for b := 0; b < burst; b++ {
				dst, ok := randomDstFrom(g, node, rng)
				if !ok {
					continue
				}
				reqs = append(reqs, grid.Request{
					Src: node.Clone(), Dst: dst,
					Arrival:  int64(t),
					Deadline: grid.InfDeadline,
				})
			}
		}
	}
	return sortReqs(reqs)
}

// Hotspot concentrates sources in the lowest-coordinate corner region
// (fraction frac of each side) with far-away destinations: the dense-area
// scenario motivating random sparsification (Sec. 1.3).
func Hotspot(g *grid.Grid, numReq int, maxT int64, frac float64, rng *rand.Rand) []grid.Request {
	if frac <= 0 || frac > 1 {
		frac = 0.25
	}
	reqs := make([]grid.Request, 0, numReq)
	d := g.D()
	for len(reqs) < numReq {
		src := make(grid.Vec, d)
		dst := make(grid.Vec, d)
		for a := 0; a < d; a++ {
			lim := int(float64(g.Dims[a]) * frac)
			if lim < 1 {
				lim = 1
			}
			src[a] = rng.Intn(lim)
			dst[a] = src[a] + rng.Intn(g.Dims[a]-src[a])
		}
		if src.Eq(dst) {
			continue
		}
		reqs = append(reqs, grid.Request{
			Src: src, Dst: dst,
			Arrival:  rng.Int63n(maxT + 1),
			Deadline: grid.InfDeadline,
		})
	}
	return sortReqs(reqs)
}

// WithDeadlines assigns each request a feasible deadline:
// t_i + dist·slack + jitter (Sec. 5.4 requires d_i ≥ t_i + dist(a_i,b_i)).
func WithDeadlines(g *grid.Grid, reqs []grid.Request, slack float64, jitter int64, rng *rand.Rand) []grid.Request {
	out := append([]grid.Request(nil), reqs...)
	for i := range out {
		dist := int64(g.Dist(out[i].Src, out[i].Dst))
		dl := out[i].Arrival + int64(float64(dist)*slack)
		if dl < out[i].Arrival+dist {
			dl = out[i].Arrival + dist
		}
		if jitter > 0 {
			dl += rng.Int63n(jitter + 1)
		}
		out[i].Deadline = dl
	}
	return out
}

// ConvoyRate is the greedy-killer family on a line (the Ω(√n) phenomenon
// of [AKOR03] in executable form): `rate` long-haul packets per step
// saturate the line (set rate = c) while short hops appear at every node.
// FIFO greedy carries the older long packets and starves the shorts; the
// optimum rejects the convoy and serves every short.
func ConvoyRate(n, rounds, rate, shortEvery int) []grid.Request {
	if shortEvery < 1 {
		shortEvery = 1
	}
	shortRounds := (rounds + shortEvery - 1) / shortEvery
	reqs := make([]grid.Request, 0, rounds*rate+shortRounds*max(n-2, 0))
	for t := 0; t < rounds; t++ {
		for j := 0; j < rate; j++ {
			reqs = append(reqs, grid.Request{
				Src: grid.Vec{0}, Dst: grid.Vec{n - 1},
				Arrival: int64(t), Deadline: grid.InfDeadline,
			})
		}
	}
	for t := 0; t < rounds; t += shortEvery {
		for v := 1; v < n-1; v++ {
			reqs = append(reqs, grid.Request{
				Src: grid.Vec{v}, Dst: grid.Vec{v + 1},
				Arrival: int64(t), Deadline: grid.InfDeadline,
			})
		}
	}
	return sortReqs(reqs)
}

// Convoy is ConvoyRate with one long packet per step.
func Convoy(n int, rounds int, shortEvery int) []grid.Request {
	return ConvoyRate(n, rounds, 1, shortEvery)
}

// ConvoyOPTLowerBound returns a throughput achievable by an offline
// scheduler on the convoy: serving every short hop (pairwise disjoint in
// space-time: a short at (v,t) uses only edge v during step t). It is a
// valid |opt| lower bound used to lower-bound competitive ratios.
func ConvoyOPTLowerBound(n, rounds, shortEvery int) int {
	if shortEvery < 1 {
		shortEvery = 1
	}
	shorts := ((rounds + shortEvery - 1) / shortEvery) * (n - 2)
	return shorts
}

// Crossbar emulates input-queued switch traffic on an ℓ×ℓ grid (the
// crossbar motivation of Sec. 1.1): packets enter on the west edge (column
// 0) and leave toward a uniformly random row/column crossing point.
func Crossbar(l int, b, c int, rounds int, load float64, rng *rand.Rand) (*grid.Grid, []grid.Request) {
	g := grid.New([]int{l, l}, b, c)
	var reqs []grid.Request
	for t := 0; t < rounds; t++ {
		for row := 0; row < l; row++ {
			if rng.Float64() > load {
				continue
			}
			dstRow := row + rng.Intn(l-row)
			dstCol := rng.Intn(l)
			if dstRow == row && dstCol == 0 {
				continue
			}
			reqs = append(reqs, grid.Request{
				Src: grid.Vec{row, 0}, Dst: grid.Vec{dstRow, dstCol},
				Arrival: int64(t), Deadline: grid.InfDeadline,
			})
		}
	}
	return g, sortReqs(reqs)
}

// Permutation issues one request per node to a random higher node —
// light-load traffic where near-everything should be deliverable.
func Permutation(g *grid.Grid, maxT int64, rng *rand.Rand) []grid.Request {
	var reqs []grid.Request
	d := g.D()
	node := make(grid.Vec, d)
	for id := 0; id < g.N(); id++ {
		g.Node(id, node)
		dst, ok := randomDstFrom(g, node, rng)
		if !ok {
			continue
		}
		reqs = append(reqs, grid.Request{
			Src: node.Clone(), Dst: dst,
			Arrival:  rng.Int63n(maxT + 1),
			Deadline: grid.InfDeadline,
		})
	}
	return sortReqs(reqs)
}
