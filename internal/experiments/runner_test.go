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

// An experiment that overruns the per-experiment timeout is abandoned and
// reported as DeadlineExceeded.
func TestRunnerTimeout(t *testing.T) {
	exp := stub("hang", func(ctx context.Context, _ Config) (Report, error) {
		select {
		case <-ctx.Done():
			return Report{}, ctx.Err()
		case <-time.After(30 * time.Second):
			return Report{}, errors.New("never reached")
		}
	})
	r := Runner{Workers: 1, Policy: Policy{Timeout: 20 * time.Millisecond}}
	results := r.Run(context.Background(), []Experiment{exp})
	if res := results[0]; !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", res.Err)
	}
}

// When a timed-out attempt is abandoned while a hung sub-task still holds
// a shared pool slot, the slot must be reclaimed: later experiments in the
// same sweep still get to run (they'd deadlock forever otherwise).
func TestRunnerTimeoutReclaimsPoolSlots(t *testing.T) {
	unhang := make(chan struct{})
	defer close(unhang)
	hung := stub("hung", func(ctx context.Context, cfg Config) (Report, error) {
		err := cfg.Sweep(ctx, 1, func(int) { <-unhang })
		return Report{}, err
	})
	healthy := stub("healthy", func(ctx context.Context, cfg Config) (Report, error) {
		ran := 0
		if err := cfg.Sweep(ctx, 3, func(int) { ran++ }); err != nil {
			return Report{}, err
		}
		return Report{Notes: []string{fmt.Sprint(ran)}}, nil
	})
	// Workers=1: a single shared slot, held by the hung sub-task when the
	// attempt is abandoned at the deadline.
	r := Runner{Workers: 1, Policy: Policy{Timeout: 30 * time.Millisecond}}
	doneCh := make(chan []Result, 1)
	go func() { doneCh <- r.Run(context.Background(), []Experiment{hung, healthy}) }()
	select {
	case results := <-doneCh:
		if !errors.Is(results[0].Err, context.DeadlineExceeded) {
			t.Fatalf("hung: err = %v, want DeadlineExceeded", results[0].Err)
		}
		if results[1].Err != nil || len(results[1].Report.Notes) != 1 || results[1].Report.Notes[0] != "3" {
			t.Fatalf("healthy experiment starved: %+v", results[1])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sweep deadlocked: abandoned attempt's pool slot was never reclaimed")
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

// A sub-case that overruns Policy.SubTimeout is abandoned individually:
// its siblings' results survive, the timeout surfaces as a skipped
// sub-case, and the reclaimed pool slot lets the rest of the sweep
// proceed (Workers=1 would deadlock otherwise).
func TestSubTimeoutBoundsIndividualSubCases(t *testing.T) {
	unhang := make(chan struct{})
	defer close(unhang)
	exp := stub("subhang", func(ctx context.Context, cfg Config) (Report, error) {
		var skips SkipList
		vals, timedOut, err := SweepResults(ctx, cfg, &skips, 3, func(i int, _ func(string, ...any)) int {
			if i == 1 {
				<-unhang
			}
			return i + 1
		})
		if err != nil {
			return Report{}, err
		}
		skips.SkipTimeouts(timedOut, func(i int) string { return fmt.Sprintf("i=%d", i) })
		return skips.finish(Report{Notes: []string{fmt.Sprint(vals)}})
	})
	r := Runner{Workers: 1, Policy: Policy{SubTimeout: 30 * time.Millisecond}}
	doneCh := make(chan []Result, 1)
	go func() { doneCh <- r.Run(context.Background(), []Experiment{exp, okStub("next")}) }()
	var results []Result
	select {
	case results = <-doneCh:
	case <-time.After(10 * time.Second):
		t.Fatal("sweep deadlocked: abandoned sub-case's pool slot was never reclaimed")
	}
	res := results[0]
	if !errors.Is(res.Err, ErrSkipped) {
		t.Fatalf("err = %v, want ErrSkipped", res.Err)
	}
	if !strings.Contains(res.Err.Error(), "i=1: sub-case timeout") {
		t.Fatalf("timeout not named in error: %v", res.Err)
	}
	if len(res.Report.Notes) == 0 || !strings.Contains(res.Report.Notes[0], "[1 0 3]") {
		t.Fatalf("sibling sub-case results lost: %v", res.Report.Notes)
	}
	if results[1].Err != nil {
		t.Fatalf("next experiment starved after sub-case timeout: %v", results[1].Err)
	}
}

// SweepResults on a hand-built Config (no pool) sweeps serially but still
// honours the per-sub-case bound.
func TestSweepResultsInlineNoPool(t *testing.T) {
	cfg := Config{ID: "X", Seed: 1, subTimeout: 20 * time.Millisecond}
	vals, timedOut, err := SweepResults(context.Background(), cfg, nil, 3, func(i int, _ func(string, ...any)) int {
		if i == 1 {
			time.Sleep(500 * time.Millisecond)
		}
		return i + 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(timedOut) != 1 || timedOut[0] != 1 {
		t.Fatalf("timedOut = %v, want [1]", timedOut)
	}
	if vals[0] != 1 || vals[1] != 0 || vals[2] != 3 {
		t.Fatalf("vals = %v, want [1 0 3]", vals)
	}
}

// A panic inside a SweepResults sub-case is re-thrown on the experiment's
// goroutine, where the runner's containment reports a failed experiment
// instead of crashing the worker.
func TestSweepResultsPanicContained(t *testing.T) {
	exp := stub("subboom", func(ctx context.Context, cfg Config) (Report, error) {
		_, _, err := SweepResults(ctx, cfg, nil, 2, func(i int, _ func(string, ...any)) int {
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

// When Policy.Timeout abandons a whole attempt while a hung sub-case holds
// a per-sub-case lease (SubTimeout also set, but far away), the attempt
// reclaim must free the child lease's slot too — the sweep would otherwise
// starve until the distant SubTimeout fired.
func TestAttemptTimeoutReclaimsChildLeases(t *testing.T) {
	unhang := make(chan struct{})
	defer close(unhang)
	hung := stub("hung", func(ctx context.Context, cfg Config) (Report, error) {
		_, _, err := SweepResults(ctx, cfg, nil, 1, func(int, func(string, ...any)) int {
			<-unhang
			return 0
		})
		return Report{}, err
	})
	healthy := stub("healthy", func(ctx context.Context, cfg Config) (Report, error) {
		vals, _, err := SweepResults(ctx, cfg, nil, 3, func(i int, _ func(string, ...any)) int { return i })
		if err != nil {
			return Report{}, err
		}
		return Report{Notes: []string{fmt.Sprint(vals)}}, nil
	})
	// One shared slot; the sub-case lease is a child of the hung attempt's
	// lease. SubTimeout is far beyond the test horizon: only the attempt
	// reclaim can free the slot in time.
	r := Runner{Workers: 1, Policy: Policy{Timeout: 30 * time.Millisecond, SubTimeout: time.Hour}}
	doneCh := make(chan []Result, 1)
	go func() { doneCh <- r.Run(context.Background(), []Experiment{hung, healthy}) }()
	select {
	case results := <-doneCh:
		if !errors.Is(results[0].Err, context.DeadlineExceeded) {
			t.Fatalf("hung: err = %v, want DeadlineExceeded", results[0].Err)
		}
		if results[1].Err != nil || len(results[1].Report.Notes) != 1 || results[1].Report.Notes[0] != "[0 1 2]" {
			t.Fatalf("healthy experiment starved behind the child lease: %+v", results[1])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sweep deadlocked: attempt reclaim did not free the sub-case's child lease")
	}
}

// Skips raised by a sub-case that was abandoned at SubTimeout must vanish
// with its result: the report shows exactly one entry (the timeout), never
// a nondeterministic extra entry from the late goroutine.
func TestAbandonedSubCaseSkipsSuppressed(t *testing.T) {
	started := make(chan struct{}, 1)
	unhang := make(chan struct{})
	exp := stub("lateskip", func(ctx context.Context, cfg Config) (Report, error) {
		var skips SkipList
		_, timedOut, err := SweepResults(ctx, cfg, &skips, 1, func(i int, skip func(string, ...any)) int {
			started <- struct{}{}
			<-unhang
			skip("late skip that must be discarded")
			return 1
		})
		if err != nil {
			return Report{}, err
		}
		skips.SkipTimeouts(timedOut, func(int) string { return "sub" })
		// Let the abandoned goroutine run its skip call before rendering.
		close(unhang)
		time.Sleep(20 * time.Millisecond)
		return skips.finish(Report{})
	})
	results := Runner{Workers: 2, Policy: Policy{SubTimeout: 30 * time.Millisecond}}.Run(
		context.Background(), []Experiment{exp})
	<-started
	res := results[0]
	if !errors.Is(res.Err, ErrSkipped) || !strings.Contains(res.Err.Error(), "sub: sub-case timeout") {
		t.Fatalf("err = %v, want the sub-case timeout skip", res.Err)
	}
	if strings.Contains(res.Err.Error(), "late skip") ||
		strings.Contains(strings.Join(res.Report.Notes, "\n"), "late skip") {
		t.Fatalf("abandoned sub-case's skip leaked into the report: %v / %v", res.Err, res.Report.Notes)
	}
}
