package experiments

import (
	"context"
	"fmt"

	"gridroute/internal/baseline"
	"gridroute/internal/core"
	"gridroute/internal/grid"
	"gridroute/internal/netsim"
	"gridroute/internal/optbound"
	"gridroute/internal/scenario"
	"gridroute/internal/spacetime"
	"gridroute/internal/stats"
)

func init() {
	Register(Experiment{
		ID:    "E1-E3",
		Title: "Deterministic algorithm sweeps (Thms 4, 10, 11; Prop 12)",
		Tags:  []string{"sweep", "deterministic", "thm4", "thm10", "thm11"},
		Run:   runDetSweep,
	})
}

// runDetSweep measures the deterministic algorithm on lines (Thm 4), 2-d
// grids (Thm 10) and bufferless lines (Thm 11 / Prop 12).
func runDetSweep(ctx context.Context, cfg Config) (Report, error) {
	t := stats.NewTable("Deterministic algorithm: certified ratios vs n (Thm 4, 10, 11)",
		"experiment", "n", "B", "c", "ipp", "ipp'", "delivered", "upper (certificate)", "ratio")
	var skips SkipList
	sizes := cfg.Sizes()

	// Lines (Thm 4).
	type lineSlot struct {
		res   *core.DetResult
		upper float64
		ok    bool
	}
	lines, err := Sweep(ctx, cfg, len(sizes), func(i int) lineSlot {
		n := sizes[i]
		g := grid.Line(n, 3, 3)
		reqs := scenario.Uniform(g, 5*n, int64(2*n), cfg.SubRNG(fmt.Sprintf("thm4/n=%d", n)))
		horizon := spacetime.SuggestHorizon(g, reqs, 3)
		res, err := core.RunDeterministic(g, reqs, core.DetConfig{Horizon: horizon})
		if err != nil {
			skips.Skip("E1 Thm4 line n=%d: %v", n, err)
			return lineSlot{}
		}
		upper, _ := optbound.DualUpperBound(g, reqs, horizon)
		return lineSlot{res: res, upper: upper, ok: true}
	})
	if err != nil {
		return Report{}, err
	}
	var lineNs []int
	var lineRatios []float64
	for i, n := range sizes {
		s := lines[i]
		if !s.ok {
			continue
		}
		r := ratio(s.upper, s.res.Throughput)
		t.AddRow("E1 Thm4 line", n, 3, 3, s.res.Admitted, s.res.ReachedLastTile, s.res.Throughput,
			fmt.Sprintf("%.1f (dual)", s.upper), r)
		lineNs = append(lineNs, n)
		lineRatios = append(lineRatios, r)
	}

	// 2-d grids (Thm 10).
	grids := []int{6, 8}
	if !cfg.Quick {
		grids = []int{6, 8, 12, 16}
	}
	grid2d, err := Sweep(ctx, cfg, len(grids), func(i int) lineSlot {
		s := grids[i]
		g := grid.New([]int{s, s}, 3, 3)
		reqs := scenario.Uniform(g, 6*s*s, int64(3*s), cfg.SubRNG(fmt.Sprintf("thm10/side=%d", s)))
		horizon := spacetime.SuggestHorizon(g, reqs, 3)
		res, rerr := core.RunDeterministic(g, reqs, core.DetConfig{Horizon: horizon})
		if rerr != nil {
			skips.Skip("E2 Thm10 2-d side=%d: %v", s, rerr)
			return lineSlot{}
		}
		upper, _ := optbound.DualUpperBound(g, reqs, horizon)
		return lineSlot{res: res, upper: upper, ok: true}
	})
	if err != nil {
		return Report{}, err
	}
	for i, s := range grids {
		sl := grid2d[i]
		if !sl.ok {
			continue
		}
		t.AddRow("E2 Thm10 2-d", s*s, 3, 3, sl.res.Admitted, sl.res.ReachedLastTile, sl.res.Throughput,
			fmt.Sprintf("%.1f (dual)", sl.upper), ratio(sl.upper, sl.res.Throughput))
	}

	// Bufferless lines (Thm 11) against the exact OPT (Prop 12 machinery).
	type b0Slot struct {
		res   *core.DetResult
		opt   int
		ntgTP int
		ok    bool
	}
	b0, err := Sweep(ctx, cfg, len(sizes), func(i int) b0Slot {
		n := sizes[i]
		g := grid.Line(n, 0, 3)
		reqs := scenario.Uniform(g, 4*n, int64(2*n), cfg.SubRNG(fmt.Sprintf("thm11/n=%d", n)))
		horizon := spacetime.SuggestHorizon(g, reqs, 3)
		res, rerr := core.RunDeterministic(g, reqs, core.DetConfig{Horizon: horizon})
		if rerr != nil {
			skips.Skip("E3 Thm11 B=0 n=%d: %v", n, rerr)
			return b0Slot{}
		}
		return b0Slot{
			res:   res,
			opt:   optbound.ExactBufferlessLine(g, reqs),
			ntgTP: netsim.RunLocal(g, reqs, baseline.NearestToGo{}, netsim.Model1, horizon).Throughput(),
			ok:    true,
		}
	})
	if err != nil {
		return Report{}, err
	}
	for i, n := range sizes {
		s := b0[i]
		if !s.ok {
			continue
		}
		t.AddRow("E3 Thm11 B=0", n, 0, 3, s.res.Admitted, s.res.ReachedLastTile, s.res.Throughput,
			fmt.Sprintf("%d (exact)", s.opt), ratio(float64(s.opt), s.res.Throughput))
		t.AddRow("E3 NTG B=0 (Prop12)", n, 0, 3, "-", "-", s.ntgTP,
			fmt.Sprintf("%d (exact)", s.opt), ratio(float64(s.opt), s.ntgTP))
	}

	exp := stats.GrowthExponent(lineNs, lineRatios)
	return skips.finish(Report{
		Tables: []*stats.Table{t},
		Notes: []string{
			fmt.Sprintf("Fitted line-ratio growth exponent b = %.2f (polylog curves fit b ≈ 0; the Ω(√n) greedy curve of T1 fits b ≥ 0.5).", exp),
			"Dual-certificate ratios overestimate the true competitive ratio by up to 2× (Thm 1's primal/dual gap) plus the fractional/integral gap.",
		},
	})
}
