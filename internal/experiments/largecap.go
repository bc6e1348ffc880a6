package experiments

import (
	"context"
	"fmt"

	"gridroute/internal/core"
	"gridroute/internal/grid"
	"gridroute/internal/optbound"
	"gridroute/internal/scenario"
	"gridroute/internal/spacetime"
	"gridroute/internal/stats"
)

func init() {
	Register(Experiment{
		ID:    "E4",
		Title: "Theorem 13 — large buffers and link capacities",
		Tags:  []string{"sweep", "deterministic", "thm13", "largecap"},
		Run:   runThm13,
	})
}

// runThm13 measures the large-capacity algorithm.
func runThm13(ctx context.Context, cfg Config) (Report, error) {
	sizes := cfg.Sizes()
	type slot struct {
		res   *core.LargeCapResult
		upper float64
	}
	var skips SkipList
	slots, err := Sweep(ctx, cfg, len(sizes), func(i int) slot {
		n := sizes[i]
		g := grid.Line(n, 64, 64)
		reqs := scenario.Saturating(g, 6, 3, cfg.SubRNG(fmt.Sprintf("n=%d", n)))
		horizon := spacetime.SuggestHorizon(g, reqs, 2)
		res, err := core.RunLargeCapacity(g, reqs, core.DetConfig{Horizon: horizon})
		if err != nil {
			skips.Skip("n=%d: %v", n, err)
			return slot{}
		}
		upper, _ := optbound.DualUpperBound(g, reqs, horizon)
		return slot{res: res, upper: upper}
	})
	if err != nil {
		return Report{}, err
	}

	t := stats.NewTable("Thm 13: large B, c — scaled ipp over the space-time graph",
		"n", "B=c", "k", "delivered", "upper", "ratio", "ratio/log2(n)")
	for i, n := range sizes {
		s := slots[i]
		if s.res == nil {
			continue
		}
		r := ratio(s.upper, s.res.Throughput)
		t.AddRow(n, 64, s.res.K, s.res.Throughput, s.upper, r, r/float64(log2int(n)))
	}
	return skips.finish(Report{
		Tables: []*stats.Table{t},
		Notes:  []string{"Non-preemptive: every admitted packet is delivered; replayed schedules satisfy the unscaled capacities because the Thm 1 load bound k cancels the 1/k capacity scaling."},
	})
}
