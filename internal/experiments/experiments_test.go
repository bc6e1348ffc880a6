package experiments

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"gridroute/internal/scenario"
)

// The full quick-mode suite must produce every report with non-empty
// tables and no hard errors — this is the regression net for
// EXPERIMENTS.md generation.
func TestAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	results := Runner{Workers: 1, Quick: true}.RunAll(context.Background())
	wantIDs := []string{"T1", "T2", "E1-E3", "E4", "E5", "E8", "E9", "E10", "E11", "E13", "E14"}
	if len(results) != len(wantIDs) {
		t.Fatalf("got %d reports, want %d", len(results), len(wantIDs))
	}
	for i, res := range results {
		r := res.Report
		if r.ID != wantIDs[i] {
			t.Errorf("report %d: id %q, want %q", i, r.ID, wantIDs[i])
		}
		if r.ID != res.Experiment.ID {
			t.Errorf("report id %q does not match experiment id %q", r.ID, res.Experiment.ID)
		}
		if res.Err != nil && !errors.Is(res.Err, ErrSkipped) {
			t.Errorf("report %s: hard error %v", r.ID, res.Err)
		}
		if res.Duration <= 0 {
			t.Errorf("report %s: no wall-clock timing recorded", r.ID)
		}
		if len(r.Tables) == 0 {
			t.Errorf("report %s has no tables", r.ID)
		}
		for _, tb := range r.Tables {
			if len(tb.Rows) == 0 {
				t.Errorf("report %s: table %q empty", r.ID, tb.Title)
			}
			md := tb.Markdown()
			if !strings.Contains(md, "| --- |") && !strings.Contains(md, "| --- | ---") {
				t.Errorf("report %s: bad markdown", r.ID)
			}
		}
	}
}

func TestSizes(t *testing.T) {
	if len(Sizes(true)) >= len(Sizes(false)) {
		t.Fatal("quick mode must be smaller")
	}
	cfg := Config{Quick: true}
	if len(cfg.Sizes()) != len(Sizes(true)) {
		t.Fatal("Config.Sizes must match Sizes")
	}
}

// Zero throughput is an unbounded ratio, not a perfect one.
func TestRatioZeroThroughputIsInf(t *testing.T) {
	if r := ratio(42, 0); !math.IsInf(r, 1) {
		t.Fatalf("ratio(42, 0) = %v, want +Inf", r)
	}
	if r := ratio(10, 5); r != 2 {
		t.Fatalf("ratio(10, 5) = %v, want 2", r)
	}
}

func TestConfigRNGDeterministic(t *testing.T) {
	cfg := Config{Seed: 7}
	a, b := cfg.RNG(3), cfg.RNG(3)
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same (seed, stream) must yield the same sequence")
		}
	}
	if cfg.RNG(1).Int63() == cfg.RNG(2).Int63() {
		t.Fatal("distinct streams should decorrelate (first draw collided)")
	}
}

// SubRNG is a pure function of (ID, subkey): independent of Seed, worker
// count, and call order.
func TestConfigSubRNGDeterministic(t *testing.T) {
	a := Config{ID: "T1", Seed: 1}
	b := Config{ID: "T1", Seed: 999}
	if a.SubRNG("n=64").Int63() != b.SubRNG("n=64").Int63() {
		t.Fatal("SubRNG must depend on (ID, subkey) alone")
	}
	if a.SubRNG("n=64").Int63() == a.SubRNG("n=32").Int63() {
		t.Fatal("distinct subkeys should decorrelate (first draw collided)")
	}
	c := Config{ID: "T2", Seed: 1}
	if a.SubRNG("n=64").Int63() == c.SubRNG("n=64").Int63() {
		t.Fatal("distinct IDs should decorrelate (first draw collided)")
	}
}

// Sweep without a semaphore runs inline; with one it must still run every
// index exactly once and return each result in its own slot, whatever the
// number of slots.
func TestSweepRunsAllIndices(t *testing.T) {
	for _, slots := range []int{0, 1, 3, 16} {
		cfg := Config{}
		if slots > 0 {
			cfg.sem = make(chan struct{}, slots)
		}
		const n = 23
		var hits [n]atomic.Int32
		vals, err := Sweep(context.Background(), cfg, n, func(i int) int {
			hits[i].Add(1)
			return i * i
		})
		if err != nil {
			t.Fatalf("slots=%d: %v", slots, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("slots=%d: index %d ran %d times", slots, i, got)
			}
			if vals[i] != i*i {
				t.Fatalf("slots=%d: vals[%d] = %d, want %d", slots, i, vals[i], i*i)
			}
		}
	}
}

// A cancelled context stops the sweep at the next dispatch point and is
// reported; no sub-case starts, and no semaphore slot stays taken.
func TestSweepHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, withSem := range []bool{false, true} {
		cfg := Config{}
		if withSem {
			cfg.sem = make(chan struct{}, 2)
		}
		var ran atomic.Int32
		_, err := Sweep(ctx, cfg, 10, func(int) int { ran.Add(1); return 0 })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("sem=%v: err = %v, want context.Canceled", withSem, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("sem=%v: %d sub-cases ran after cancellation", withSem, ran.Load())
		}
		if len(cfg.sem) != 0 {
			t.Fatalf("sem=%v: %d slots still held after the sweep", withSem, len(cfg.sem))
		}
	}
}

func TestSkipList(t *testing.T) {
	var s SkipList
	if s.Err() != nil || s.Len() != 0 {
		t.Fatal("empty SkipList must report no error")
	}
	rep := Report{Notes: []string{"existing"}}
	s.Apply(&rep)
	if len(rep.Notes) != 1 {
		t.Fatal("empty SkipList must not add a note")
	}
	// Record out of order (as parallel sub-tasks would): output is sorted
	// lexicographically, so notes and errors stay deterministic at any
	// worker count.
	s.Skip("n=%d: zebra", 256)
	s.Skip("n=%d: aardvark", 32)
	err := s.Err()
	if !errors.Is(err, ErrSkipped) {
		t.Fatalf("err = %v, want ErrSkipped wrap", err)
	}
	want := "n=256: zebra; n=32: aardvark"
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("err %q does not carry sorted skip list %q", err, want)
	}
	s.Apply(&rep)
	if len(rep.Notes) != 2 || rep.Notes[0] != "existing" || !strings.Contains(rep.Notes[1], want) {
		t.Fatalf("notes = %v, want sorted skip note last", rep.Notes)
	}
	if !strings.Contains(rep.Markdown(), "⚠ skipped sub-cases: "+want) {
		t.Fatalf("markdown missing skip note:\n%s", rep.Markdown())
	}

	// Two reports whose Notes share one backing array with spare capacity:
	// each report's skip note must land in its own array, or the second
	// Apply overwrites the first report's note.
	shared := make([]string, 1, 4)
	shared[0] = "shared"
	first, second := Report{Notes: shared}, Report{Notes: shared}
	var s1, s2 SkipList
	s1.Skip("n=32: first")
	s2.Skip("n=64: second")
	s1.Apply(&first)
	s2.Apply(&second)
	if len(first.Notes) != 2 || !strings.Contains(first.Notes[1], "n=32: first") {
		t.Fatalf("first report's skip note overwritten: %v", first.Notes)
	}
	if len(second.Notes) != 2 || !strings.Contains(second.Notes[1], "n=64: second") {
		t.Fatalf("second report's skip note wrong: %v", second.Notes)
	}
}

// Quick-mode overrides must only ever shrink a scenario, never inflate a
// small default (appendixf-model2 defaults to rounds=1; the quick rounds=4
// override must not apply to it, while 0-default auto-sizing knobs like
// the convoy's rounds still shrink).
func TestQuickOverridesNeverInflate(t *testing.T) {
	for _, sc := range scenario.Registered() {
		overrides := quickOverrides(sc)
		for name, v := range overrides {
			p, ok := sc.Param(name)
			if !ok {
				t.Fatalf("%s: override for undeclared param %s", sc.ID, name)
			}
			if p.Default != 0 && v >= p.Default {
				t.Errorf("%s: quick override %s=%v inflates default %v", sc.ID, name, v, p.Default)
			}
		}
	}
	if adv, _ := scenario.Lookup("appendixf-model2"); len(quickOverrides(adv)) != 0 {
		t.Errorf("appendixf-model2 quick overrides = %v, want none", quickOverrides(adv))
	}
}
