package main

import (
	"strings"
	"testing"

	"gridroute"
)

func TestUnknownAlgorithmExits2ListingKnown(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-alg", "bogus"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	for _, name := range []string{"det", "rand", "thm13", "greedy", "ntg"} {
		if !strings.Contains(errb.String(), name) {
			t.Fatalf("stderr must list %q, got: %s", name, errb.String())
		}
	}
}

func TestUnknownScenarioExits2ListingKnown(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-scenario", "bogus"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "uniform") || !strings.Contains(errb.String(), "appendixf-model2") {
		t.Fatalf("stderr must list known scenarios, got: %s", errb.String())
	}
}

func TestUnknownParameterExits2(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-scenario", "uniform", "-p", "bogus=3"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "known:") {
		t.Fatalf("stderr must list known parameters, got: %s", errb.String())
	}
}

func TestMalformedParameterExits2(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-p", "noequals"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestListScenarios(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list-scenarios"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)", code, errb.String())
	}
	lines := 0
	for _, l := range strings.Split(out.String(), "\n") {
		if l != "" && !strings.HasPrefix(l, " ") {
			lines++
		}
	}
	if lines < 14 {
		t.Fatalf("catalog lists %d scenarios, want ≥ 14:\n%s", lines, out.String())
	}
}

func TestDumpIsDeterministic(t *testing.T) {
	var a, b, errb strings.Builder
	if code := run([]string{"-scenario", "heavy-pareto", "-dump", "-seed", "3"}, &a, &errb); code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, errb.String())
	}
	if code := run([]string{"-scenario", "heavy-pareto", "-dump", "-seed", "3"}, &b, &errb); code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, errb.String())
	}
	if a.String() != b.String() {
		t.Fatal("dump output differs between runs")
	}
	if len(strings.Split(strings.TrimSpace(a.String()), "\n")) < 10 {
		t.Fatalf("dump suspiciously short:\n%s", a.String())
	}
}

func TestEndToEndGreedyOnConvoy(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-alg", "greedy", "-scenario", "convoy", "-p", "n=32", "-p", "c=1"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "delivered") || !strings.Contains(out.String(), "OPT ≤") {
		t.Fatalf("summary missing fields:\n%s", out.String())
	}
}

// The randomized algorithm needs B ≥ 1: a bufferless run is an error
// (exit 1), not a divide-by-zero panic.
func TestRandomizedBufferlessExits1(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-alg", "rand", "-scenario", "uniform", "-p", "b=0"}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.HasPrefix(errb.String(), "error:") {
		t.Fatalf("stderr = %q, want an error: line", errb.String())
	}
}

// A negative or NaN -gamma is an error (exit 1), not a run that exits 0
// with a meaningless sparsification rate.
func TestRandomizedBadGammaExits1(t *testing.T) {
	for _, gamma := range []string{"-1", "NaN"} {
		var out, errb strings.Builder
		if code := run([]string{"-alg", "rand", "-scenario", "uniform", "-p", "b=1", "-p", "c=1", "-gamma", gamma}, &out, &errb); code != 1 {
			t.Fatalf("-gamma %s: exit = %d, want 1 (stderr: %s)", gamma, code, errb.String())
		}
		if !strings.HasPrefix(errb.String(), "error: core:") {
			t.Fatalf("-gamma %s: stderr = %q, want an error: core: line", gamma, errb.String())
		}
	}
}

func TestSeedBeyondFloat64PrecisionExits2(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-scenario", "uniform", "-seed", "9007199254740993"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "2^53") {
		t.Fatalf("stderr must explain the precision limit, got: %s", errb.String())
	}
}

// violatingRouter stands in for a router whose schedules fail the replay
// check.
type violatingRouter struct{}

func (violatingRouter) Name() string { return "violating" }

func (violatingRouter) Route(g *gridroute.Grid, reqs []gridroute.Request) (*gridroute.Result, error) {
	return &gridroute.Result{
		Algorithm:  "violating",
		Requests:   len(reqs),
		Violations: []string{"t=3 node 2: buffer 4 > B=3"},
	}, nil
}

// A run whose routed schedules replay with violations prints its summary
// and then exits 1, naming the failed check.
func TestReplayViolationsExit1(t *testing.T) {
	algorithms["violating"] = func(int64, float64) gridroute.Router { return violatingRouter{} }
	t.Cleanup(func() { delete(algorithms, "violating") })
	var out, errb strings.Builder
	if code := run([]string{"-alg", "violating", "-scenario", "uniform"}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "violations  1") {
		t.Fatalf("summary missing the violation count:\n%s", out.String())
	}
	if want := "check failed: 1 replay violations, first: t=3 node 2"; !strings.Contains(errb.String(), want) {
		t.Fatalf("stderr = %q, want it to contain %q", errb.String(), want)
	}
}
