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
		ID:    "E8",
		Title: "Theorem 1 — online integral path packing guarantees",
		Tags:  []string{"guarantee", "ipp", "thm1"},
		Run:   runThm1,
	})
}

// runThm1 measures the ipp guarantees on the deterministic sketch graphs.
func runThm1(ctx context.Context, cfg Config) (Report, error) {
	sizes := cfg.Sizes()
	var skips SkipList
	slots, err := Sweep(ctx, cfg, len(sizes), func(i int) *core.DetResult {
		n := sizes[i]
		g := grid.Line(n, 3, 3)
		reqs := scenario.Saturating(g, 6, 2, cfg.SubRNG(fmt.Sprintf("n=%d", n)))
		res, err := core.RunDeterministic(g, reqs, core.DetConfig{})
		if err != nil {
			skips.Skip("n=%d: %v", n, err)
			return nil
		}
		return res
	})
	if err != nil {
		return Report{}, err
	}

	t := stats.NewTable("Thm 1: ipp primal/dual gap ≤ 2 and edge load ≤ log2(1+3·pmax)",
		"n", "max load", "load bound", "primal", "2×accepted", "gap OK")
	for i, n := range sizes {
		res := slots[i]
		if res == nil {
			continue
		}
		ok := res.PrimalValue <= 2*float64(res.Admitted)+1e-9 && res.MaxLoad <= res.LoadBound+1e-9
		t.AddRow(n, res.MaxLoad, res.LoadBound, res.PrimalValue, 2*res.Admitted, ok)
	}
	return skips.finish(Report{Tables: []*stats.Table{t}})
}
