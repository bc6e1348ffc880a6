package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sample is a GOMAXPROCS=8 run: go test appends the same -8 to every name.
const sample = `goos: linux
goarch: amd64
pkg: gridroute
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkThm4DetLine-8 	     220	   5836721 ns/op	         1.647 certified-ratio	 1521706 B/op	   80694 allocs/op
BenchmarkThm4DetLine-8 	     182	   6376735 ns/op	         1.647 certified-ratio	 1521706 B/op	   80694 allocs/op
BenchmarkHotPath/PackerOfferDense-8         	24690418	        48.01 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	gridroute	12.104s
`

func TestParseBench(t *testing.T) {
	e, err := parseBench(sample, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.GOOS != "linux" || e.GOARCH != "amd64" || e.Pkg != "gridroute" {
		t.Fatalf("env headers wrong: %+v", e)
	}
	if !strings.Contains(e.CPU, "Xeon") {
		t.Fatalf("cpu header wrong: %q", e.CPU)
	}
	if len(e.Bench) != 2 {
		t.Fatalf("got %d benchmarks, want 2", len(e.Bench))
	}
	// Sorted by name: HotPath first.
	hp := e.Bench[0]
	if hp.Name != "BenchmarkHotPath/PackerOfferDense" {
		t.Fatalf("procs suffix not stripped: %q", hp.Name)
	}
	if e.Procs != 8 {
		t.Fatalf("procs label = %d, want 8 (recovered from the -8 suffix)", e.Procs)
	}
	if len(hp.Runs) != 1 || hp.Runs[0].Metrics["ns/op"] != 48.01 || hp.Runs[0].Metrics["allocs/op"] != 0 {
		t.Fatalf("hotpath run wrong: %+v", hp.Runs)
	}
	thm := e.Bench[1]
	if thm.Name != "BenchmarkThm4DetLine" || len(thm.Runs) != 2 {
		t.Fatalf("count>1 runs not grouped: %+v", thm)
	}
	r := thm.Runs[0]
	if r.N != 220 || r.Metrics["ns/op"] != 5836721 || r.Metrics["certified-ratio"] != 1.647 ||
		r.Metrics["B/op"] != 1521706 || r.Metrics["allocs/op"] != 80694 {
		t.Fatalf("metrics wrong: %+v", r)
	}
}

// Regression: custom b.ReportMetric units ride on the result line as extra
// value/unit pairs — the streaming engine's packets/sec (a unit with a
// slash, large magnitudes, sometimes scientific notation) must land in
// Run.Metrics next to the standard ns/op, B/op and allocs/op.
func TestParseBenchCustomMetrics(t *testing.T) {
	const engineRun = `goos: linux
pkg: gridroute
BenchmarkEngineAdmit/Mixed 	  263941	      1209 ns/op	    827254 packets/sec	       1 B/op	       0 allocs/op
BenchmarkEngineAdmit/Saturated 	 2731760	      1368 ns/op	 1.366e+06 packets/sec	       0 B/op	       0 allocs/op
PASS
`
	e, err := parseBench(engineRun, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Bench) != 2 {
		t.Fatalf("got %d benchmarks, want 2: %+v", len(e.Bench), e.Bench)
	}
	mixed, sat := e.Bench[0], e.Bench[1]
	if mixed.Name != "BenchmarkEngineAdmit/Mixed" || sat.Name != "BenchmarkEngineAdmit/Saturated" {
		t.Fatalf("names wrong: %q, %q", mixed.Name, sat.Name)
	}
	m := mixed.Runs[0].Metrics
	if m["packets/sec"] != 827254 || m["ns/op"] != 1209 || m["B/op"] != 1 || m["allocs/op"] != 0 {
		t.Fatalf("custom metric lost or mangled: %+v", m)
	}
	if got := sat.Runs[0].Metrics["packets/sec"]; got != 1.366e+06 {
		t.Fatalf("scientific-notation metric = %v, want 1.366e+06", got)
	}
}

// A malformed metric value must fail loudly rather than drop the pair.
func TestParseBenchBadMetricValue(t *testing.T) {
	const bad = `BenchmarkEngineAdmit/Mixed 	 100	 12 ns/op	 fast packets/sec
PASS
`
	if _, err := parseBench(bad, 1); err == nil {
		t.Fatal("expected error on non-numeric metric value")
	}
}

// Regression: with GOMAXPROCS=1 go test emits no procs suffix, so a
// numeric-named sub-benchmark's "-128" is part of its name — stripping it
// would merge size-128's runs into size-64's and corrupt the trajectory.
func TestParseBenchKeepsNumericNamesWithoutProcsSuffix(t *testing.T) {
	const procsFree = `goos: linux
BenchmarkHotPath/size-64 	 1000000	      1042 ns/op
BenchmarkHotPath/size-128 	  500000	      2105 ns/op
BenchmarkHotPath/size-128 	  500000	      2098 ns/op
PASS
`
	e, err := parseBench(procsFree, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Bench) != 2 {
		t.Fatalf("got %d benchmarks, want 2 (size-64 and size-128 must not merge): %+v", len(e.Bench), e.Bench)
	}
	if e.Bench[0].Name != "BenchmarkHotPath/size-128" || e.Bench[1].Name != "BenchmarkHotPath/size-64" {
		t.Fatalf("numeric sub-benchmark names mangled: %q, %q", e.Bench[0].Name, e.Bench[1].Name)
	}
	if len(e.Bench[0].Runs) != 2 || len(e.Bench[1].Runs) != 1 {
		t.Fatalf("runs grouped under the wrong name: %+v", e.Bench)
	}
}

// With a real procs suffix the numeric sub-benchmark keeps its own number:
// only the shared trailing -8 comes off.
func TestParseBenchStripsConsistentProcsSuffix(t *testing.T) {
	const suffixed = `BenchmarkHotPath/size-64-8 	 1000000	      1042 ns/op
BenchmarkHotPath/size-128-8 	  500000	      2105 ns/op
BenchmarkThm1IPP-8 	     100	   10042 ns/op
PASS
`
	e, err := parseBench(suffixed, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"BenchmarkHotPath/size-128", "BenchmarkHotPath/size-64", "BenchmarkThm1IPP"}
	if len(e.Bench) != len(want) {
		t.Fatalf("got %d benchmarks, want %d", len(e.Bench), len(want))
	}
	for i, w := range want {
		if e.Bench[i].Name != w {
			t.Fatalf("name %d = %q, want %q", i, e.Bench[i].Name, w)
		}
	}
}

// A trailing number that differs between lines (or is missing on any line)
// is not a procs suffix; nothing is stripped.
func TestParseBenchInconsistentSuffixNotStripped(t *testing.T) {
	const mixed = `BenchmarkHotPath/size-128 	  500000	      2105 ns/op
BenchmarkThm4DetLine 	     220	   5836721 ns/op
PASS
`
	e, err := parseBench(mixed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Bench) != 2 || e.Bench[0].Name != "BenchmarkHotPath/size-128" || e.Bench[1].Name != "BenchmarkThm4DetLine" {
		t.Fatalf("inconsistent suffix must not strip: %+v", e.Bench)
	}
}

// When benchjson ran go test itself, the child's GOMAXPROCS is known: at 1
// no suffix exists, so even a lone numeric-named sub-benchmark (textually
// ambiguous) keeps its number; at N only exactly -N strips.
func TestParseBenchKnownProcs(t *testing.T) {
	const lone = `BenchmarkHotPath/size-128 	  500000	      2105 ns/op
BenchmarkHotPath/size-128 	  500000	      2098 ns/op
PASS
`
	e, err := parseBench(lone, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Bench) != 1 || e.Bench[0].Name != "BenchmarkHotPath/size-128" {
		t.Fatalf("GOMAXPROCS=1 must never strip: %+v", e.Bench)
	}
	if e.Procs != 1 {
		t.Fatalf("known GOMAXPROCS=1 must label procs=1, got %d", e.Procs)
	}

	const suffixed = `BenchmarkHotPath/size-128-8 	  500000	      2105 ns/op
PASS
`
	e, err = parseBench(suffixed, 8)
	if err != nil {
		t.Fatal(err)
	}
	if e.Bench[0].Name != "BenchmarkHotPath/size-128" {
		t.Fatalf("known -8 suffix must strip: %q", e.Bench[0].Name)
	}
	if e.Procs != 8 {
		t.Fatalf("multi-core run must label procs=8, got %d", e.Procs)
	}
	// A consistent number that is not the known GOMAXPROCS is part of the
	// name.
	e, err = parseBench(suffixed, 4)
	if err != nil {
		t.Fatal(err)
	}
	if e.Bench[0].Name != "BenchmarkHotPath/size-128-8" {
		t.Fatalf("suffix -8 is not GOMAXPROCS=4, must not strip: %q", e.Bench[0].Name)
	}
}

// An -input file run at GOMAXPROCS=1 has no procs suffix on any line: go
// test appends -N to every name whenever N > 1, so such a file is labelled
// procs=1. Names that end in numbers keep the old reading: a lone numeric
// name is still read as a suffix, and mixed tails leave procs unknown.
func TestParseBenchInputProcsLabel(t *testing.T) {
	const procsFree = `BenchmarkHotPath/DetrouteRun 	    2763	    417586 ns/op	   83420 B/op	    1120 allocs/op
BenchmarkHotPath/DetrouteRun 	    2553	    417693 ns/op	   83420 B/op	    1120 allocs/op
BenchmarkEngineAdmit/Mixed 	  263941	      1209 ns/op
PASS
`
	cases := []struct {
		name, input string
		procs       int
	}{
		{"no numeric tail", procsFree, 1},
		{"lone numeric name", "BenchmarkHotPath/size-128 \t 500000\t 2105 ns/op\n", 128},
		{"mixed tails", "BenchmarkHotPath/size-128 \t 500000\t 2105 ns/op\nBenchmarkThm4DetLine \t 220\t 5836721 ns/op\n", 0},
	}
	for _, tc := range cases {
		e, err := parseBench(tc.input, 0)
		if err != nil {
			t.Fatal(err)
		}
		if e.Procs != tc.procs {
			t.Errorf("%s: procs = %d, want %d", tc.name, e.Procs, tc.procs)
		}
	}
}

func TestParseBenchRejectsEmpty(t *testing.T) {
	if _, err := parseBench("PASS\nok x 1s\n", 0); err == nil {
		t.Fatal("expected error on output with no benchmarks")
	}
}

func TestRunInputAndAppend(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	out := filepath.Join(dir, "traj.json")
	raw := filepath.Join(dir, "raw.txt")
	if err := os.WriteFile(in, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if code := run([]string{"-input", in, "-label", "baseline", "-out", out, "-rawout", raw}, &sb, &sb); code != 0 {
		t.Fatalf("run exit %d: %s", code, sb.String())
	}
	if code := run([]string{"-input", in, "-label", "after", "-out", out, "-append"}, &sb, &sb); code != 0 {
		t.Fatalf("append run exit %d: %s", code, sb.String())
	}

	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var traj Trajectory
	if err := json.Unmarshal(b, &traj); err != nil {
		t.Fatal(err)
	}
	if traj.Schema != schemaID {
		t.Fatalf("schema = %q", traj.Schema)
	}
	if len(traj.Entries) != 2 || traj.Entries[0].Label != "baseline" || traj.Entries[1].Label != "after" {
		t.Fatalf("trajectory entries wrong: %+v", traj.Entries)
	}
	rb, err := os.ReadFile(raw)
	if err != nil {
		t.Fatal(err)
	}
	if string(rb) != sample {
		t.Fatal("rawout does not preserve the benchstat input")
	}
}

func TestRunRequiresLabelAndOut(t *testing.T) {
	var sb strings.Builder
	if code := run([]string{"-input", "x"}, &sb, &sb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestAppendRefusesUnreadableTrajectory(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("permission bits are ineffective as root")
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	out := filepath.Join(dir, "traj.json")
	if err := os.WriteFile(in, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, []byte(`{"schema":"x","entries":[]}`), 0o000); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if code := run([]string{"-input", in, "-label", "x", "-out", out, "-append"}, &sb, &sb); code != 1 {
		t.Fatalf("exit %d, want 1 (must not truncate an unreadable trajectory)", code)
	}
}
