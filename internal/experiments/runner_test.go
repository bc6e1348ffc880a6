package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func renderAll(results []Result) string {
	var b strings.Builder
	for _, r := range results {
		b.WriteString(r.Report.Markdown())
	}
	return b.String()
}

// stub builds a synthetic experiment for runner-behaviour tests.
func stub(id string, run func(ctx context.Context, cfg Config) (Report, error)) Experiment {
	return Experiment{ID: id, Title: "stub " + id, Tags: []string{"stub"}, Run: run}
}

func okStub(id string) Experiment {
	return stub(id, func(context.Context, Config) (Report, error) {
		return Report{Notes: []string{"ok"}}, nil
	})
}

// A parallel run must produce byte-identical tables to a serial run at any
// worker count: every experiment — and every sub-case of its n-sweep — is
// seeded from its ID, never from scheduling order.
func TestRunnerParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := context.Background()
	serial := Runner{Workers: 1, Quick: true}.RunAll(ctx)
	sMD := renderAll(serial)
	for _, workers := range []int{4, 8} {
		parallel := Runner{Workers: workers, Quick: true}.RunAll(ctx)
		if pMD := renderAll(parallel); sMD != pMD {
			t.Fatalf("-j %d markdown differs from serial (-j 1):\nserial:\n%.2000s\nparallel:\n%.2000s", workers, sMD, pMD)
		}
	}
	if !strings.Contains(sMD, "## T1") || !strings.Contains(sMD, "## E13") {
		t.Fatal("rendered suite is missing expected sections")
	}
	for _, res := range serial {
		if res.Err != nil && !errors.Is(res.Err, ErrSkipped) {
			t.Errorf("%s: unexpected error %v", res.Experiment.ID, res.Err)
		}
	}
}

func TestRunnerPreservesInputOrder(t *testing.T) {
	var exps []Experiment
	for _, id := range []string{"E13", "T1", "E4"} {
		if _, ok := Lookup(id); !ok {
			t.Fatalf("missing %s", id)
		}
		// Stub the heavy Run: order preservation is a scheduling property.
		exps = append(exps, okStub(id))
	}
	results := Runner{Workers: 3, Quick: true}.Run(context.Background(), exps)
	for i, want := range []string{"E13", "T1", "E4"} {
		if results[i].Experiment.ID != want || results[i].Report.ID != want {
			t.Fatalf("result %d = %s (report %s), want %s", i, results[i].Experiment.ID, results[i].Report.ID, want)
		}
	}
}

func TestRunnerWorkerClamping(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 100} {
		results := Runner{Workers: workers, Quick: true}.Run(context.Background(), []Experiment{okStub("E9")})
		if len(results) != 1 || len(results[0].Report.Notes) != 1 {
			t.Fatalf("Workers=%d: bad results %+v", workers, results)
		}
		// The runner stamps ID/Title from the input entry.
		if results[0].Report.ID != "E9" || results[0].Report.Title != "stub E9" {
			t.Fatalf("Workers=%d: report not stamped: %+v", workers, results[0].Report)
		}
		if results[0].Err != nil {
			t.Fatalf("Workers=%d: err=%v", workers, results[0].Err)
		}
	}
}

// Stream must emit each result as soon as its turn comes, not after the
// whole set finishes: the first (slow) experiment's result must be
// deliverable while the last one is still blocked.
func TestStreamEmitsIncrementally(t *testing.T) {
	release := make(chan struct{})
	exps := []Experiment{
		okStub("A"),
		stub("B", func(context.Context, Config) (Report, error) {
			<-release
			return Report{}, nil
		}),
	}
	ch := Runner{Workers: 2}.Stream(context.Background(), exps)
	select {
	case res := <-ch:
		if res.Experiment.ID != "A" {
			t.Fatalf("first emitted = %s, want A", res.Experiment.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("A's result was held back until the whole sweep finished")
	}
	close(release)
	if res := <-ch; res.Experiment.ID != "B" {
		t.Fatalf("second emitted = %s, want B", res.Experiment.ID)
	}
	if _, open := <-ch; open {
		t.Fatal("stream not closed after all results")
	}
}

// The reorder buffer must hold an early finisher until its predecessors
// have been emitted, preserving canonical order.
func TestStreamPreservesOrderAcrossFinishTimes(t *testing.T) {
	firstDone := make(chan struct{})
	exps := []Experiment{
		stub("slow", func(context.Context, Config) (Report, error) {
			<-firstDone // finishes last
			return Report{}, nil
		}),
		stub("fast", func(context.Context, Config) (Report, error) {
			close(firstDone) // finishes first
			return Report{}, nil
		}),
	}
	var got []string
	for res := range (Runner{Workers: 2}).Stream(context.Background(), exps) {
		got = append(got, res.Experiment.ID)
	}
	if strings.Join(got, ",") != "slow,fast" {
		t.Fatalf("emission order %v, want [slow fast]", got)
	}
}

// ErrSkipped is a deterministic partial result: the experiment runs once,
// and its report keeps both its own notes and the skip note.
func TestRunnerKeepsSkippedReport(t *testing.T) {
	var calls atomic.Int32
	exp := stub("partial", func(context.Context, Config) (Report, error) {
		calls.Add(1)
		var skips SkipList
		skips.Skip("n=256: out of memory")
		return skips.finish(Report{Notes: []string{"partial tables"}})
	})
	results := Runner{Workers: 1}.Run(context.Background(), []Experiment{exp})
	if calls.Load() != 1 {
		t.Fatalf("skipped experiment ran %d times, want 1", calls.Load())
	}
	res := results[0]
	if !errors.Is(res.Err, ErrSkipped) {
		t.Fatalf("err = %v, want ErrSkipped", res.Err)
	}
	if len(res.Report.Notes) != 2 || res.Report.Notes[0] != "partial tables" ||
		!strings.Contains(res.Report.Notes[1], "skipped sub-cases: n=256: out of memory") {
		t.Fatalf("notes = %v, want the experiment's note then the skip note", res.Report.Notes)
	}
}

// Cancelling the caller's context mid-sweep stops new experiments and
// drains the rest as cancelled results, so the stream still closes after
// exactly len(exps) results.
func TestRunnerCtxCancelMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	exps := []Experiment{
		okStub("first"),
		stub("trigger", func(context.Context, Config) (Report, error) {
			cancel()
			return Report{}, nil
		}),
		okStub("after"),
		okStub("last"),
	}
	results := Runner{Workers: 1}.Run(ctx, exps)
	if len(results) != len(exps) {
		t.Fatalf("got %d results, want %d (cancelled experiments must still drain)", len(results), len(exps))
	}
	if results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("pre-cancel results errored: %v, %v", results[0].Err, results[1].Err)
	}
	for _, res := range results[2:] {
		if !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", res.Experiment.ID, res.Err)
		}
		if res.Report.ID != res.Experiment.ID {
			t.Fatalf("%s: cancelled result not stamped", res.Experiment.ID)
		}
	}
}

// A panicking experiment must not kill the worker; it surfaces as an error
// like any failure.
func TestRunnerRecoversPanics(t *testing.T) {
	exp := stub("boom", func(context.Context, Config) (Report, error) {
		panic("table flipped")
	})
	results := Runner{Workers: 1}.Run(context.Background(), []Experiment{exp, okStub("next")})
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "panicked") {
		t.Fatalf("panic not surfaced: %v", results[0].Err)
	}
	if results[1].Err != nil {
		t.Fatalf("worker died after panic: %v", results[1].Err)
	}
}

func TestSeedForSubkeys(t *testing.T) {
	if SeedFor("T1") != SeedFor("T1") {
		t.Fatal("SeedFor must be deterministic")
	}
	if SeedFor("T1", "n=64") == SeedFor("T1") {
		t.Fatal("subkey must change the seed")
	}
	if SeedFor("T1", "n=64") == SeedFor("T1", "n=32") {
		t.Fatal("distinct subkeys must differ")
	}
	if SeedFor("T1", "n=64") != SeedFor("T1", "n=64") {
		t.Fatal("subkeyed seeds must be deterministic")
	}
	// The NUL join means ("ab", "c") and ("a", "bc") cannot collide.
	if SeedFor("ab", "c") == SeedFor("a", "bc") {
		t.Fatal("subkey framing is ambiguous")
	}
}

func TestWriteJSON(t *testing.T) {
	e := Experiment{ID: "X1", Title: "stub", Tags: []string{"stub"}}
	res := Result{
		Experiment: e,
		Report: Report{
			ID:    "X1",
			Title: "stub",
			Notes: []string{"note"},
		},
		Err:      fmt.Errorf("wrapped: %w", ErrSkipped),
		Duration: 1500 * 1000, // 1.5ms in ns
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, true, 4, true, []Result{res}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Mode        string `json:"mode"`
		Workers     int    `json:"workers"`
		Partial     bool   `json:"partial"`
		Experiments []struct {
			ID         string   `json:"id"`
			DurationMS float64  `json:"duration_ms"`
			Error      string   `json:"error"`
			Notes      []string `json:"notes"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.Mode != "quick" || doc.Workers != 4 || !doc.Partial {
		t.Fatalf("header wrong: %+v", doc)
	}
	if len(doc.Experiments) != 1 || doc.Experiments[0].ID != "X1" {
		t.Fatalf("experiments wrong: %+v", doc.Experiments)
	}
	if doc.Experiments[0].DurationMS != 1.5 {
		t.Fatalf("duration_ms = %v, want 1.5", doc.Experiments[0].DurationMS)
	}
	if !strings.Contains(doc.Experiments[0].Error, "skipped") {
		t.Fatalf("error accounting wrong: %+v", doc.Experiments[0])
	}
}

// The JSON file for a real run must round-trip and carry result rows.
func TestWriteJSONQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	exps, err := Select("^T1$")
	if err != nil {
		t.Fatal(err)
	}
	results := Runner{Workers: 2, Quick: true}.Run(context.Background(), exps)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, true, 2, false, results); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if !strings.Contains(buf.String(), `"rows"`) {
		t.Fatal("JSON results missing table rows")
	}
	if _, ok := doc["partial"]; ok {
		t.Fatal("completed run must not be marked partial")
	}
}

// A panic inside a Sweep sub-case is re-thrown on the experiment's
// goroutine, where the runner's containment reports a failed experiment
// instead of crashing the worker.
func TestSweepPanicContained(t *testing.T) {
	exp := stub("subboom", func(ctx context.Context, cfg Config) (Report, error) {
		_, err := Sweep(ctx, cfg, 2, func(i int) int {
			if i == 1 {
				panic("sub-case flipped")
			}
			return i
		})
		return Report{}, err
	})
	results := Runner{Workers: 2}.Run(context.Background(), []Experiment{exp, okStub("next")})
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "panicked") {
		t.Fatalf("sub-case panic not surfaced: %v", results[0].Err)
	}
	if results[1].Err != nil {
		t.Fatalf("worker died after sub-case panic: %v", results[1].Err)
	}
}

// The -j bound holds across experiments: every experiment's sub-cases share
// one semaphore, so with Workers=2 no more than two sub-cases run at once
// even while two experiments sweep side by side.
func TestSweepBoundsSubTasksAcrossExperiments(t *testing.T) {
	const workers, subcases = 2, 8
	var running, peak atomic.Int32
	sweep := func(ctx context.Context, cfg Config) (Report, error) {
		vals, err := Sweep(ctx, cfg, subcases, func(i int) int {
			now := running.Add(1)
			for {
				p := peak.Load()
				if now <= p || peak.CompareAndSwap(p, now) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			running.Add(-1)
			return i
		})
		return Report{Notes: []string{fmt.Sprint(vals)}}, err
	}
	exps := []Experiment{stub("a", sweep), stub("b", sweep), stub("c", sweep)}
	results := Runner{Workers: workers}.Run(context.Background(), exps)
	want := fmt.Sprint([]int{0, 1, 2, 3, 4, 5, 6, 7})
	for _, res := range results {
		if res.Err != nil || len(res.Report.Notes) != 1 || res.Report.Notes[0] != want {
			t.Fatalf("%s: err = %v, results %v, want %s", res.Experiment.ID, res.Err, res.Report.Notes, want)
		}
	}
	if got := peak.Load(); got > workers {
		t.Fatalf("peak of %d sub-cases running at once, want at most %d", got, workers)
	}
}
