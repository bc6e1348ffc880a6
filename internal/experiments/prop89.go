package experiments

import (
	"context"
	"fmt"

	"gridroute/internal/core"
	"gridroute/internal/grid"
	"gridroute/internal/scenario"
	"gridroute/internal/stats"
)

func init() {
	Register(Experiment{
		ID:    "E10",
		Title: "Props 8/9 — loss decomposition of detailed routing",
		Tags:  []string{"guarantee", "prop8", "prop9", "routing"},
		Run:   runProp89,
	})
}

// runProp89 reports the detailed-routing loss fractions.
func runProp89(ctx context.Context, cfg Config) (Report, error) {
	sizes := cfg.Sizes()
	var skips SkipList
	slots, err := Sweep(ctx, cfg, len(sizes), func(i int) *core.DetResult {
		n := sizes[i]
		g := grid.Line(n, 3, 3)
		reqs := scenario.Saturating(g, 8, 2, cfg.SubRNG(fmt.Sprintf("n=%d", n)))
		res, err := core.RunDeterministic(g, reqs, core.DetConfig{})
		if err != nil {
			skips.Skip("n=%d: %v", n, err)
			return nil
		}
		if res.Admitted == 0 {
			skips.Skip("n=%d: nothing admitted", n)
			return nil
		}
		return res
	})
	if err != nil {
		return Report{}, err
	}

	t := stats.NewTable("Props 8, 9: detailed-routing survival fractions (theory: each ≥ 1/(2k))",
		"n", "k", "ipp", "ipp'", "alg", "ipp'/ipp", "alg/ipp'", "1/(2k)")
	for i, n := range sizes {
		res := slots[i]
		if res == nil {
			continue
		}
		f1 := float64(res.ReachedLastTile) / float64(res.Admitted)
		f2 := 0.0
		if res.ReachedLastTile > 0 {
			f2 = float64(res.Throughput) / float64(res.ReachedLastTile)
		}
		t.AddRow(n, res.K, res.Admitted, res.ReachedLastTile, res.Throughput, f1, f2, 1/(2*float64(res.K)))
	}
	return skips.finish(Report{Tables: []*stats.Table{t}})
}
