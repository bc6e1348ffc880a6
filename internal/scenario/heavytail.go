package scenario

// Heavy-tailed and bursty traffic: the unexplored workload axis named in
// the ROADMAP. Three scenarios: Pareto-renewal arrivals (heavy-tailed
// inter-arrival gaps), Zipf-popularity sources (heavy-tailed spatial
// skew), and Markov-modulated on/off bursts (temporally correlated load).
// None of these admit the independence assumptions behind smooth uniform
// traffic, which is exactly why they stress admission control differently
// than the Sec. 1.3 hotspot.

import (
	"math"
	"math/rand"

	"gridroute/internal/grid"
)

// paretoGap draws one inter-arrival gap from a shifted Pareto(alpha)
// distribution: heavy-tailed for small alpha (infinite variance for
// alpha ≤ 2), degenerating towards constant gaps as alpha grows. The gap is
// returned in continuous time: the caller accumulates the renewal clock in
// float and floors only the cumulative epoch on emission. (Flooring each
// gap individually truncated every sub-unit gap to 0 — at the default
// alpha = 1.5, scale = 1 the median gap is ≈ 0.59, so most arrivals
// collapsed onto one step and the "renewal process" was mostly a burst.)
func paretoGap(rng *rand.Rand, alpha, scale, maxGap float64) float64 {
	// rand.Float64 scales a 63-bit draw by 2^-63; the conversion keeps
	// that product from fusing with 1-u.
	u := float64(rng.Float64())
	g := scale * (math.Pow(1-u, -1/alpha) - 1)
	if g > maxGap {
		g = maxGap
	}
	return g
}

// uniformPair draws a uniformly random (src, dst) pair with dst reachable
// and distinct, exactly as Uniform does.
func uniformPair(g *grid.Grid, rng *rand.Rand) (grid.Vec, grid.Vec, bool) {
	src := make(grid.Vec, g.D())
	for a := 0; a < g.D(); a++ {
		src[a] = rng.Intn(g.Dims[a])
	}
	dst, ok := randomDstFrom(g, src, rng)
	return src, dst, ok
}

// ParetoArrivals generates numReq requests whose arrival epochs form a
// renewal process with Pareto(alpha) inter-arrival gaps: long quiet
// stretches punctuated by dense packet trains.
func ParetoArrivals(g *grid.Grid, numReq int, alpha, scale, maxGap float64, rng *rand.Rand) []grid.Request {
	reqs := make([]grid.Request, 0, numReq)
	// The renewal clock stays in float; each arrival epoch is the floor of
	// the cumulative time, so sub-unit gaps still advance the process
	// (deterministically — float accumulation is exact replay of the same
	// draw sequence) instead of all truncating to zero.
	var t float64
	for len(reqs) < numReq {
		t += paretoGap(rng, alpha, scale, maxGap)
		src, dst, ok := uniformPair(g, rng)
		if !ok {
			continue
		}
		reqs = append(reqs, grid.Request{
			Src: src, Dst: dst,
			Arrival:  int64(t),
			Deadline: grid.InfDeadline,
		})
	}
	return sortReqs(reqs)
}

// ZipfSources draws sources from a Zipf(s) popularity distribution over
// node IDs — a few nodes originate most of the traffic — with uniformly
// random reachable destinations and uniform arrivals.
func ZipfSources(g *grid.Grid, numReq int, s float64, maxT int64, rng *rand.Rand) []grid.Request {
	z := rand.NewZipf(rng, s, 1, uint64(g.N()-1))
	reqs := make([]grid.Request, 0, numReq)
	node := make(grid.Vec, g.D())
	for len(reqs) < numReq {
		g.Node(int(z.Uint64()), node)
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

// MarkovOnOff runs an independent two-state (on/off) Markov chain at every
// node: an ON node emits `burst` requests per step, so the network sees
// correlated busy periods instead of memoryless load. pOn is the off→on
// transition probability, pOff the on→off probability; the chains start in
// their stationary distribution.
func MarkovOnOff(g *grid.Grid, rounds, burst int, pOn, pOff float64, rng *rand.Rand) []grid.Request {
	n := g.N()
	on := make([]bool, n)
	stationary := pOn / (pOn + pOff)
	for i := range on {
		on[i] = rng.Float64() < stationary
	}
	var reqs []grid.Request
	d := g.D()
	node := make(grid.Vec, d)
	for t := 0; t < rounds; t++ {
		for id := 0; id < n; id++ {
			if on[id] {
				if rng.Float64() < pOff {
					on[id] = false
				}
			} else if rng.Float64() < pOn {
				on[id] = true
			}
			if !on[id] {
				continue
			}
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

func init() {
	Register(Scenario{
		ID:    "heavy-pareto",
		Title: "Heavy-tailed Pareto-renewal arrivals: packet trains separated by long lulls",
		Tags:  []string{"random", "heavy-tailed", "bursty"},
		Params: []Param{
			pSide(64), pDim(1), pBuf(3), pCap(3), pReqs(200),
			{Name: "alpha", Doc: "Pareto tail index (≤ 2 gives infinite-variance gaps)", Default: 1.5, Min: 1.05, Max: 8},
			{Name: "scale", Doc: "inter-arrival scale in time steps", Default: 1, Min: 0.01, Max: 1 << 16},
			{Name: "maxgap", Doc: "cap on a single inter-arrival gap (keeps horizons finite)", Default: 256, Min: 1, Max: 1 << 24},
		},
		Generate: func(s Spec) (*grid.Grid, []grid.Request, error) {
			g := specGrid(s)
			return g, ParetoArrivals(g, s.Int("reqs"), s.Float("alpha"), s.Float("scale"), s.Float("maxgap"), s.RNG()), nil
		},
	})

	Register(Scenario{
		ID:    "zipf-hotspot",
		Title: "Zipf-popularity sources: a few nodes originate most traffic",
		Tags:  []string{"random", "heavy-tailed", "hotspot"},
		Params: []Param{
			pSide(64), pDim(1), pBuf(3), pCap(3), pReqs(200), pMaxT(128),
			{Name: "s", Doc: "Zipf exponent over node popularity ranks (> 1)", Default: 1.2, Min: 1.01, Max: 8},
		},
		Generate: func(s Spec) (*grid.Grid, []grid.Request, error) {
			g := specGrid(s)
			return g, ZipfSources(g, s.Int("reqs"), s.Float("s"), s.Int64("maxt"), s.RNG()), nil
		},
	})

	Register(Scenario{
		ID:    "markov-onoff",
		Title: "Markov-modulated on/off bursts: correlated busy periods per node",
		Tags:  []string{"random", "bursty", "overload"},
		Params: []Param{
			pSide(64), pDim(1), pBuf(3), pCap(3), pRounds(32),
			{Name: "burst", Doc: "requests per ON node per step", Default: 2, Min: 1, Max: 64, Int: true},
			{Name: "pon", Doc: "off→on transition probability", Default: 0.05, Min: 0.001, Max: 1},
			{Name: "poff", Doc: "on→off transition probability", Default: 0.25, Min: 0.001, Max: 1},
		},
		Generate: func(s Spec) (*grid.Grid, []grid.Request, error) {
			g := specGrid(s)
			return g, MarkovOnOff(g, s.Int("rounds"), s.Int("burst"), s.Float("pon"), s.Float("poff"), s.RNG()), nil
		},
	})
}
