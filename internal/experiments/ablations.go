package experiments

import (
	"context"

	"gridroute/internal/core"
	"gridroute/internal/grid"
	"gridroute/internal/optbound"
	"gridroute/internal/scenario"
	"gridroute/internal/spacetime"
	"gridroute/internal/stats"
)

func init() {
	Register(Experiment{
		ID:    "E13",
		Title: "Ablations — γ, load cap, tile side",
		Tags:  []string{"ablation", "randomized", "deterministic"},
		Run:   runAblations,
	})
}

// runAblations varies the design knobs the paper calls out.
func runAblations(ctx context.Context, cfg Config) (Report, error) {
	n := 96
	if cfg.Quick {
		n = 64
	}
	var skips SkipList

	// E13a: the sparsification constant γ and the load cap, on one shared
	// instance against one shared certificate.
	g := grid.Line(n, 1, 1)
	reqs := scenario.Uniform(g, 8*n, int64(3*n), cfg.SubRNG("rand/uniform"))
	horizon := spacetime.SuggestHorizon(g, reqs, 3)
	upper, _ := optbound.DualUpperBound(g, reqs, horizon)
	type knob struct {
		gamma, loadCap float64
	}
	var knobs []knob
	for _, gamma := range []float64{0.25, 1, 8, 200} {
		for _, lc := range []float64{0.25, 0.9} {
			knobs = append(knobs, knob{gamma, lc})
		}
	}
	randSlots, err := Sweep(ctx, cfg, len(knobs), func(i int) *core.RandResult {
		kn := knobs[i]
		// One coin stream for every knob: rows differ only through γ/cap.
		res, rerr := core.RunRandomized(g, reqs,
			core.RandConfig{Horizon: horizon, Gamma: kn.gamma, LoadCap: kn.loadCap, Branch: 1},
			cfg.SubRNG("rand/coins"))
		if rerr != nil {
			skips.Skip("E13a gamma=%v loadcap=%v: %v", kn.gamma, kn.loadCap, rerr)
			return nil
		}
		return res
	})
	if err != nil {
		return Report{}, err
	}
	t := stats.NewTable("E13a: sparsification constant γ (λ = 1/(γk)) and load cap",
		"γ", "load cap", "delivered", "ratio vs dual upper")
	for i, kn := range knobs {
		res := randSlots[i]
		if res == nil {
			continue
		}
		t.AddRow(kn.gamma, kn.loadCap, res.Throughput, ratio(upper, res.Throughput))
	}

	// E13b: tile side ablation for the deterministic algorithm (Sec. 3.3
	// footnote: rectangular vs square tiles trade a log factor).
	g2 := grid.Line(n, 3, 3)
	reqs2 := scenario.Uniform(g2, 6*n, int64(2*n), cfg.SubRNG("det/uniform"))
	upper2, _ := optbound.DualUpperBound(g2, reqs2, spacetime.SuggestHorizon(g2, reqs2, 3))
	k0 := core.TileSideDet(core.PMaxDet(g2))
	var ks []int
	for _, k := range []int{k0 / 2, k0, 2 * k0} {
		if k >= 2 {
			ks = append(ks, k)
		}
	}
	detSlots, err := Sweep(ctx, cfg, len(ks), func(i int) *core.DetResult {
		res, rerr := core.RunDeterministic(g2, reqs2, core.DetConfig{TileSide: ks[i]})
		if rerr != nil {
			skips.Skip("E13b k=%d: %v", ks[i], rerr)
			return nil
		}
		return res
	})
	if err != nil {
		return Report{}, err
	}
	t2 := stats.NewTable("E13b: deterministic tile side k (paper: ⌈log2(1+3·pmax)⌉)",
		"k", "delivered", "ratio vs dual upper")
	for i, k := range ks {
		res := detSlots[i]
		if res == nil {
			continue
		}
		t2.AddRow(k, res.Throughput, ratio(upper2, res.Throughput))
	}
	return skips.finish(Report{
		Tables: []*stats.Table{t, t2},
		Notes: []string{
			"γ = 200 (the proof constant) rejects nearly everything at this scale: the O(log n) guarantee is asymptotic; engineering γ keeps the shape with usable constants.",
		},
	})
}
