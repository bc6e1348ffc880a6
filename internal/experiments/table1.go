package experiments

import (
	"context"
	"fmt"

	"gridroute/internal/baseline"
	"gridroute/internal/core"
	"gridroute/internal/grid"
	"gridroute/internal/netsim"
	"gridroute/internal/scenario"
	"gridroute/internal/spacetime"
	"gridroute/internal/stats"
)

func init() {
	Register(Experiment{
		ID:    "T1",
		Title: "Table 1 — prior online algorithms on adversarial traffic",
		Tags:  []string{"table", "baseline", "deterministic", "lowerbound"},
		Run:   runTable1,
	})
}

// runTable1 runs each algorithm in its canonical Table 1 setting on the
// convoy construction (the executable form of the [AKOR03] Ω(√n) greedy
// phenomenon): greedy and nearest-to-go at B = 3, c = 1 (unit links, as in
// Table 1), the paper's deterministic algorithm at B = c = 3.
func runTable1(ctx context.Context, cfg Config) (Report, error) {
	sizes := cfg.Sizes()
	type slot struct {
		greedyTP, ntgTP int
		optLB           int
		detTP           int
		detOK           bool
	}
	var skips SkipList
	slots, err := Sweep(ctx, cfg, len(sizes), func(i int) slot {
		n := sizes[i]
		rounds := 2 * n
		// Unit links (Table 1's setting): the convoy saturates every link.
		g1 := grid.Line(n, 3, 1)
		reqs1 := scenario.ConvoyRate(n, rounds, 1, 1)
		horizon := spacetime.SuggestHorizon(g1, reqs1, 3)
		s := slot{optLB: scenario.ConvoyOPTLowerBound(n, rounds, 1)}
		s.greedyTP = netsim.RunLocal(g1, reqs1, baseline.Greedy{}, netsim.Model1, horizon).Throughput()
		s.ntgTP = netsim.RunLocal(g1, reqs1, baseline.NearestToGo{}, netsim.Model1, horizon).Throughput()
		// The deterministic algorithm needs c ≥ 3; same convoy shape.
		g3 := grid.Line(n, 3, 3)
		reqs3 := scenario.ConvoyRate(n, rounds, 3, 1)
		if det, err := core.RunDeterministic(g3, reqs3, core.DetConfig{}); err != nil {
			skips.Skip("even-medina-det n=%d: %v", n, err)
		} else {
			s.detTP, s.detOK = det.Throughput, true
		}
		return s
	})
	if err != nil {
		return Report{}, err
	}

	t := stats.NewTable("Table 1 (reproduced): measured competitive ratios on the convoy instance",
		"n", "alg", "B", "c", "delivered", "OPT certificate", "ratio")
	var ns []int
	ratios := map[string][]float64{}
	add := func(n int, name string, b, c, tp, optLB int) {
		r := ratio(float64(optLB), tp)
		t.AddRow(n, name, b, c, tp, fmt.Sprintf("constructed ≥ %d", optLB), r)
		ratios[name] = append(ratios[name], r)
	}
	for i, n := range sizes {
		s := slots[i]
		ns = append(ns, n)
		add(n, "greedy", 3, 1, s.greedyTP, s.optLB)
		add(n, "nearest-to-go", 3, 1, s.ntgTP, s.optLB)
		if s.detOK {
			add(n, "even-medina-det", 3, 3, s.detTP, s.optLB)
		}
	}
	g := stats.NewTable("Growth exponents (ratio ~ n^b)",
		"alg", "fitted exponent b", "Table 1 expectation")
	g.AddRow("greedy", stats.GrowthExponent(ns, ratios["greedy"]), "≥ 0.5 (Ω(√n) lower bound; FIFO greedy is even worse)")
	g.AddRow("nearest-to-go", stats.GrowthExponent(ns, ratios["nearest-to-go"]), "Õ(√n) upper bound")
	g.AddRow("even-medina-det", stats.GrowthExponent(ns, ratios["even-medina-det"]), "polylog (asymptotic; constants dominate at these n)")
	return skips.finish(Report{
		Tables: []*stats.Table{t, g},
		Notes: []string{
			"The convoy keeps FIFO greedy busy with doomed long-haul packets; OPT (by construction) serves the short hops.",
			"At laptop-scale n the deterministic algorithm's k^4·(B+c) polylog factor exceeds √n, so its measured ratio is larger than greedy's even though its growth is asymptotically flat — the honest crossover lies beyond n ≈ 10^6 (see the E1-E3 table of this report).",
		},
	})
}
