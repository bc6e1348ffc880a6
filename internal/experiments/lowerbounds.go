package experiments

import (
	"context"

	"gridroute/internal/baseline"
	"gridroute/internal/netsim"
	"gridroute/internal/scenario"
	"gridroute/internal/stats"
)

func init() {
	Register(Experiment{
		ID:    "E11",
		Title: "Lower bounds — Model-2 B=1 Ω(n) phenomenon (greedy's Ω(√n) convoy: T1)",
		Tags:  []string{"lowerbound", "baseline", "model2"},
		Run:   runLowerBounds,
	})
}

// runLowerBounds runs the Model-2 collision chain of the Table 1
// lower-bound constructions. The other one, the [AKOR03] convoy against
// greedy, is T1's greedy row on the same instance.
func runLowerBounds(ctx context.Context, cfg Config) (Report, error) {
	sizes := cfg.Sizes()
	type slot struct{ tp, opt int }
	slots, err := Sweep(ctx, cfg, len(sizes), func(i int) slot {
		n := sizes[i]
		// Model 2, B = 1: the appendixf-model2 scenario (the [AZ05, AKK09]
		// Ω(n) phenomenon for FIFO-style deterministic policies).
		g, chain := scenario.Model2CollisionChain(n, 1, 1, 1)
		return slot{
			tp:  netsim.RunLocal(g, chain, baseline.Greedy{}, netsim.Model2, int64(4*n)).Throughput(),
			opt: scenario.Model2CollisionOPT(n, 1),
		}
	})
	if err != nil {
		return Report{}, err
	}

	t := stats.NewTable("Lower-bound constructions",
		"construction", "n", "alg", "delivered", "OPT (constructed)", "ratio")
	for i, n := range sizes {
		s := slots[i]
		t.AddRow("B=1 collision chain (Model 2)", n, "greedy", s.tp, s.opt, ratio(float64(s.opt), s.tp))
	}
	return Report{
		Tables: []*stats.Table{t},
		Notes: []string{
			"The greedy convoy [AKOR03] (Ω(√n) against greedy) is T1's greedy row on the same instance, and its fitted exponent is T1's greedy growth exponent.",
			"The Model-2 chain shows a FIFO policy forced to drop every short hop: ratio grows linearly in n, matching the Ω(n) bound for B = 1 in Model 2 (Appendix F remark 3).",
		},
	}, nil
}
