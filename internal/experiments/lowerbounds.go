package experiments

import (
	"context"
	"fmt"

	"gridroute/internal/baseline"
	"gridroute/internal/grid"
	"gridroute/internal/netsim"
	"gridroute/internal/scenario"
	"gridroute/internal/spacetime"
	"gridroute/internal/stats"
)

func init() {
	Register(Experiment{
		ID:    "E11",
		Title: "Lower bounds — greedy Ω(√n) and Model-2 B=1 Ω(n) phenomena",
		Tags:  []string{"lowerbound", "baseline", "model2"},
		Run:   runLowerBounds,
	})
}

// runLowerBounds runs the Table 1 lower-bound constructions.
func runLowerBounds(ctx context.Context, cfg Config) (Report, error) {
	sizes := cfg.Sizes()
	type slot struct {
		convoyTP, convoyOpt int
		chainTP, chainOpt   int
	}
	slots, err := Sweep(ctx, cfg, len(sizes), func(i int) slot {
		n := sizes[i]
		// Convoy [AKOR03]: Ω(√n) against greedy.
		g := grid.Line(n, 3, 1)
		reqs := scenario.ConvoyRate(n, 2*n, 1, 1)
		horizon := spacetime.SuggestHorizon(g, reqs, 3)
		s := slot{
			convoyTP:  netsim.RunLocal(g, reqs, baseline.Greedy{}, netsim.Model1, horizon).Throughput(),
			convoyOpt: scenario.ConvoyOPTLowerBound(n, 2*n, 1),
		}
		// Model 2, B = 1: the appendixf-model2 scenario (the [AZ05, AKK09]
		// Ω(n) phenomenon for FIFO-style deterministic policies).
		g2, chain := scenario.Model2CollisionChain(n, 1, 1, 1)
		s.chainTP = netsim.RunLocal(g2, chain, baseline.Greedy{}, netsim.Model2, int64(4*n)).Throughput()
		s.chainOpt = scenario.Model2CollisionOPT(n, 1)
		return s
	})
	if err != nil {
		return Report{}, err
	}

	t := stats.NewTable("Lower-bound constructions",
		"construction", "n", "alg", "delivered", "OPT (constructed)", "ratio")
	var ns []int
	var rs []float64
	for i, n := range sizes {
		s := slots[i]
		r := ratio(float64(s.convoyOpt), s.convoyTP)
		t.AddRow("convoy [AKOR03]", n, "greedy", s.convoyTP, s.convoyOpt, r)
		ns = append(ns, n)
		rs = append(rs, r)
	}
	for i, n := range sizes {
		s := slots[i]
		t.AddRow("B=1 collision chain (Model 2)", n, "greedy", s.chainTP, s.chainOpt, ratio(float64(s.chainOpt), s.chainTP))
	}
	return Report{
		Tables: []*stats.Table{t},
		Notes: []string{
			fmt.Sprintf("Greedy convoy ratio growth exponent: %.2f (Table 1 row 'greedy' predicts ≥ 0.5).", stats.GrowthExponent(ns, rs)),
			"The Model-2 chain shows a FIFO policy forced to drop every short hop: ratio grows linearly in n, matching the Ω(n) bound for B = 1 in Model 2 (Appendix F remark 3).",
		},
	}, nil
}
