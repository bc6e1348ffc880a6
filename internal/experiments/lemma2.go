package experiments

import (
	"context"
	"fmt"

	"gridroute/internal/core"
	"gridroute/internal/grid"
	"gridroute/internal/scenario"
	"gridroute/internal/spacetime"
	"gridroute/internal/stats"
)

func init() {
	Register(Experiment{
		ID:    "E9",
		Title: "Lemma 2 — bounded path lengths",
		Tags:  []string{"guarantee", "lemma2", "pmax"},
		Run:   runLemma2,
	})
}

// runLemma2 sweeps pmax and shows throughput saturates at a constant
// fraction.
func runLemma2(ctx context.Context, cfg Config) (Report, error) {
	n := 64
	g := grid.Line(n, 3, 3)
	reqs := scenario.Uniform(g, 6*n, int64(2*n), cfg.SubRNG("uniform"))
	horizon := spacetime.SuggestHorizon(g, reqs, 3)
	paper := core.PMaxDet(g)
	pms := []int{n / 2, n, 2 * n, 8 * n, paper}
	var skips SkipList
	slots, err := Sweep(ctx, cfg, len(pms), func(i int) *core.DetResult {
		res, err := core.RunDeterministic(g, reqs, core.DetConfig{Horizon: horizon, PMax: pms[i]})
		if err != nil {
			skips.Skip("pmax=%d: %v", pms[i], err)
			return nil
		}
		return res
	})
	if err != nil {
		return Report{}, err
	}

	t := stats.NewTable("Lemma 2: restricting path lengths costs at most a constant factor",
		"pmax", "tile side k", "delivered")
	for i, pm := range pms {
		res := slots[i]
		if res == nil {
			continue
		}
		t.AddRow(pm, res.K, res.Throughput)
	}
	return skips.finish(Report{
		Tables: []*stats.Table{t},
		Notes:  []string{fmt.Sprintf("The paper's pmax for this instance is %d; throughput saturates well before it, as Lemma 2 predicts.", paper)},
	})
}
