package experiments

import (
	"context"
	"fmt"

	"gridroute/internal/baseline"
	"gridroute/internal/core"
	"gridroute/internal/netsim"
	"gridroute/internal/scenario"
	"gridroute/internal/spacetime"
	"gridroute/internal/stats"
)

func init() {
	Register(Experiment{
		ID:    "E14",
		Title: "Scenario catalog — every registered workload end to end",
		Tags:  []string{"sweep", "scenario", "catalog"},
		Run:   runScenarioCatalog,
	})
}

// quickOverrides shrinks the volume knobs a scenario happens to declare —
// never its structural parameters — so the quick sweep stays in seconds.
// An override is applied only when it is actually smaller than the
// scenario's default (a 0 default is an auto-sizing sentinel, e.g. the
// convoy's rounds = 2n, and always larger than any explicit value).
// Registering a new scenario automatically adds it to this experiment.
func quickOverrides(sc scenario.Scenario) map[string]float64 {
	overrides := map[string]float64{}
	for name, v := range map[string]float64{"reqs": 100, "rounds": 4, "waves": 2} {
		if p, ok := sc.Param(name); ok && v >= p.Min && v <= p.Max && (p.Default == 0 || v < p.Default) {
			overrides[name] = v
		}
	}
	return overrides
}

// runScenarioCatalog generates every registered scenario and routes it
// with the baselines (and the deterministic algorithm where its B, c
// preconditions hold). The digest column fingerprints the generated
// instance, so the CI -j determinism diffs also certify that scenario
// generation is byte-stable at any worker count.
func runScenarioCatalog(ctx context.Context, cfg Config) (Report, error) {
	scs := scenario.Registered()
	type slot struct {
		dims    string
		b, c    int
		reqs    int
		digest  uint64
		greedy  int
		ntg     int
		det     int
		detOK   bool
		detSkip string
		ok      bool
	}
	var skips SkipList
	slots, err := Sweep(ctx, cfg, len(scs), func(i int) slot {
		sc := scs[i]
		overrides := map[string]float64{}
		if cfg.Quick {
			overrides = quickOverrides(sc)
		}
		g, reqs, err := scenario.Generate(sc.ID, overrides)
		if err != nil {
			skips.Skip("%s: %v", sc.ID, err)
			return slot{}
		}
		s := slot{
			dims:   fmt.Sprint(g.Dims),
			b:      g.B,
			c:      g.C,
			reqs:   len(reqs),
			digest: scenario.Digest(g, reqs),
			ok:     true,
		}
		horizon := spacetime.SuggestHorizon(g, reqs, 3)
		s.greedy = netsim.RunLocal(g, reqs, baseline.Greedy{}, netsim.Model1, horizon).Throughput()
		s.ntg = netsim.RunLocal(g, reqs, baseline.NearestToGo{}, netsim.Model1, horizon).Throughput()
		// The deterministic algorithm needs c ≥ 3 and B ≥ 3 (or the B = 0
		// bufferless variant); out-of-regime scenarios keep their baseline
		// rows and say so instead of failing the catalog.
		if g.C >= 3 && (g.B == 0 || g.B >= 3) {
			if res, err := core.RunDeterministic(g, reqs, core.DetConfig{Horizon: horizon}); err != nil {
				s.detSkip = err.Error()
			} else {
				s.det, s.detOK = res.Throughput, true
			}
		} else {
			s.detSkip = "out of regime"
		}
		return s
	})
	if err != nil {
		return Report{}, err
	}

	t := stats.NewTable("Scenario catalog: generated instances and end-to-end throughput",
		"scenario", "grid", "B", "c", "requests", "digest", "greedy", "nearest-to-go", "even-medina-det")
	for i, sc := range scs {
		s := slots[i]
		if !s.ok {
			continue
		}
		det := "—"
		if s.detOK {
			det = fmt.Sprint(s.det)
		} else if s.detSkip == "out of regime" {
			det = "— (B,c out of regime)"
		}
		t.AddRow(sc.ID, s.dims, s.b, s.c, s.reqs, fmt.Sprintf("%016x", s.digest), s.greedy, s.ntg, det)
	}
	return skips.finish(Report{
		Tables: []*stats.Table{t},
		Notes: []string{
			fmt.Sprintf("%d scenarios registered; each generated with its per-ID seed (SeedFor) and validated in-bounds/reachable/arrival-sorted before routing.", len(scs)),
			"The digest column is an FNV-1a fingerprint of the generated instance: identical across -j levels and machines, diffed by the CI determinism gate.",
		},
	})
}
