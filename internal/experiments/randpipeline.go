package experiments

import (
	"context"

	"gridroute/internal/core"
	"gridroute/internal/grid"
	"gridroute/internal/scenario"
	"gridroute/internal/stats"
)

func init() {
	Register(Experiment{
		ID:    "E5",
		Title: "Thm 29 — randomized pipeline decomposition",
		Tags:  []string{"randomized", "thm29", "pipeline"},
		Run:   runRandDecomposition,
	})
}

// runRandDecomposition reports the Sec. 7.4.3 chain on one instance.
func runRandDecomposition(ctx context.Context, cfg Config) (Report, error) {
	n := 128
	if cfg.Quick {
		n = 64
	}
	g := grid.Line(n, 1, 1)
	reqs := scenario.Uniform(g, 10*n, int64(4*n), cfg.SubRNG("uniform"))
	gammas := []float64{0.25, 1, 8}
	var skips SkipList
	slots, err := Sweep(ctx, cfg, len(gammas), func(i int) *core.RandResult {
		// Every γ draws the same coin stream (fresh generator, same seed),
		// so the rows differ only through the sparsification knob.
		res, err := core.RunRandomized(g, reqs, core.RandConfig{Gamma: gammas[i], Branch: 1}, cfg.SubRNG("coins"))
		if err != nil {
			skips.Skip("gamma=%v: %v", gammas[i], err)
			return nil
		}
		return res
	})
	if err != nil {
		return Report{}, err
	}

	t := stats.NewTable("Thm 29 pipeline: |Far+| ≥ |ipp| ≥ |ipp^λ| ≥ |ipp^λ_¼| ≥ |alg| (Sec. 7.4.3)",
		"n", "γ", "Far+", "ipp", "coin-survived", "load-survived", "injected=delivered", "TX-failed")
	for i, gamma := range gammas {
		res := slots[i]
		if res == nil {
			continue
		}
		t.AddRow(n, gamma, res.FarPlusTotal, res.IPPAccepted, res.CoinSurvived, res.LoadSurvived, res.Throughput, res.TXFailed)
	}
	return skips.finish(Report{
		Tables: []*stats.Table{t},
		Notes: []string{
			"Theorem 22 predicts E|alg| ≥ λ/4·|ipp|: the injected column tracks the coin-survived column within the I-routing loss.",
		},
	})
}
