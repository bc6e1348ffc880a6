// Command benchjson records benchmark results as a machine-readable perf
// trajectory. It runs `go test -bench` (or parses an existing benchmark
// output file), extracts every metric of every benchmark line (ns/op, B/op,
// allocs/op, and custom b.ReportMetric units like certified-ratio or the
// streaming engine's packets/sec — any value/unit pair, including
// scientific-notation values), and writes or appends a labelled entry to a
// JSON trajectory file such as BENCH_hotpath.json.
//
// Usage:
//
//	go run ./cmd/benchjson -bench 'BenchmarkHotPath|BenchmarkThm1IPP' \
//	    -count 3 -label 'PR4 dense hot path' -out BENCH_hotpath.json -append
//	go run ./cmd/benchjson -input bench.txt -label baseline -out BENCH_hotpath.json
//
// The -rawout flag additionally saves the raw `go test` output, which is the
// input format benchstat consumes — CI uses it for the advisory regression
// diff against the checked-in baseline (see README "Performance").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Run is one benchmark invocation: the iteration count and every reported
// metric keyed by unit (ns/op, B/op, allocs/op, custom units).
type Run struct {
	N       int                `json:"n"`
	Metrics map[string]float64 `json:"metrics"`
}

// Benchmark groups the runs of one benchmark name (several with -count > 1).
type Benchmark struct {
	Name string `json:"name"`
	Runs []Run  `json:"runs"`
}

// Entry is one labelled snapshot of the trajectory.
type Entry struct {
	Label  string `json:"label"`
	Go     string `json:"go,omitempty"`
	GOOS   string `json:"goos,omitempty"`
	GOARCH string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	// Procs is the GOMAXPROCS the benchmarks ran at: the child's value when
	// benchjson ran go test itself, otherwise the procs suffix recovered
	// from the result lines, or 1 when no result line ends in -<digits>
	// (go test appends -N to every name whenever N > 1). 0 (omitted) means
	// unknown — an -input file whose names end in numbers that are not one
	// shared suffix. Multi-core entries label the trajectory instead of
	// silently losing the suffix to name normalization.
	Procs     int         `json:"procs,omitempty"`
	Count     int         `json:"count,omitempty"`
	Benchtime string      `json:"benchtime,omitempty"`
	Bench     []Benchmark `json:"benchmarks"`
}

// Trajectory is the file format: an append-only sequence of entries, oldest
// first, so the perf history of the hot paths is diffable in-repo.
type Trajectory struct {
	Schema  string  `json:"schema"`
	Entries []Entry `json:"entries"`
}

const schemaID = "gridroute-bench-trajectory/v1"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "BenchmarkHotPath|BenchmarkThm4DetLine|BenchmarkThm1IPP|BenchmarkEngineAdmit", "benchmark selection regexp passed to go test")
	pkg := fs.String("pkg", ".", "package to benchmark")
	count := fs.Int("count", 1, "benchmark repetitions (-count)")
	benchtime := fs.String("benchtime", "", "benchmark duration (-benchtime), e.g. 1x or 2s")
	label := fs.String("label", "", "trajectory entry label (required)")
	out := fs.String("out", "", "trajectory JSON file to write (required)")
	appendEntry := fs.Bool("append", false, "append to an existing trajectory instead of overwriting")
	input := fs.String("input", "", "parse this benchmark output file instead of running go test")
	rawout := fs.String("rawout", "", "also save the raw benchmark output (benchstat input format)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *label == "" || *out == "" {
		fmt.Fprintln(stderr, "benchjson: -label and -out are required")
		return 2
	}

	var raw []byte
	// When benchjson runs go test itself, the child inherits this process's
	// GOMAXPROCS, so the exact procs suffix is known (and known absent at
	// GOMAXPROCS=1); -input files fall back to the consistency heuristic.
	knownProcs := 0
	if *input != "" {
		b, err := os.ReadFile(*input)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		raw = b
	} else {
		knownProcs = runtime.GOMAXPROCS(0)
		cmdArgs := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem", "-count", strconv.Itoa(*count)}
		if *benchtime != "" {
			cmdArgs = append(cmdArgs, "-benchtime", *benchtime)
		}
		cmdArgs = append(cmdArgs, *pkg)
		cmd := exec.Command("go", cmdArgs...)
		cmd.Stderr = stderr
		b, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "benchjson: go %s: %v\n", strings.Join(cmdArgs, " "), err)
			return 1
		}
		raw = b
	}

	entry, err := parseBench(string(raw), knownProcs)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	entry.Label = *label
	entry.Go = runtime.Version()
	entry.Count = *count
	entry.Benchtime = *benchtime

	traj := Trajectory{Schema: schemaID}
	if *appendEntry {
		switch b, err := os.ReadFile(*out); {
		case err == nil:
			if err := json.Unmarshal(b, &traj); err != nil {
				fmt.Fprintf(stderr, "benchjson: existing %s is not a trajectory: %v\n", *out, err)
				return 1
			}
		case !os.IsNotExist(err):
			// Anything but "no trajectory yet" must not silently truncate
			// the append-only history.
			fmt.Fprintln(stderr, err)
			return 1
		}
		traj.Schema = schemaID
	}
	traj.Entries = append(traj.Entries, entry)

	js, err := json.MarshalIndent(&traj, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	js = append(js, '\n')
	if err := os.WriteFile(*out, js, 0o644); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *rawout != "" {
		if err := os.WriteFile(*rawout, raw, 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "benchjson: recorded %d benchmark(s) as %q in %s\n", len(entry.Bench), *label, *out)
	return 0
}

// parseBench extracts environment headers and benchmark result lines from
// `go test -bench` output. Result lines have the form
//
//	BenchmarkName[-procs]  N  value unit  value unit  ...
//
// Every value/unit pair becomes a metric; repeated names (-count > 1)
// accumulate runs under one Benchmark. The GOMAXPROCS suffix is stripped
// only when it is consistent across every result line (and, when
// knownProcs > 0 because the caller ran go test itself, only when it is
// exactly -<knownProcs>; knownProcs 1 means no suffix can exist at all).
func parseBench(out string, knownProcs int) (Entry, error) {
	var e Entry
	type resultLine struct {
		name string
		run  Run
	}
	var lines []resultLine
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			e.GOOS = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			e.GOARCH = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			e.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			e.Pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			continue // not a result line (e.g. "BenchmarkFoo: output")
		}
		r := Run{N: n, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return e, fmt.Errorf("benchjson: bad metric value %q in %q", fields[i], line)
			}
			r.Metrics[fields[i+1]] = v
		}
		lines = append(lines, resultLine{name: fields[0], run: r})
	}
	if len(lines) == 0 {
		return e, fmt.Errorf("benchjson: no benchmark result lines found")
	}
	// Second pass: the GOMAXPROCS suffix is only known once every name has
	// been seen, so grouping by trimmed name must wait for the whole parse.
	names := make([]string, len(lines))
	for i, l := range lines {
		names[i] = l.name
	}
	suffix := commonProcsSuffix(names)
	switch {
	case knownProcs == 1:
		// go test appends nothing at GOMAXPROCS=1: any consistent numeric
		// tail is part of the benchmark names (e.g. a lone size-128 sweep).
		suffix = ""
	case knownProcs > 1:
		// The suffix, if present, can only be the child's GOMAXPROCS.
		if want := fmt.Sprintf("-%d", knownProcs); suffix != want {
			suffix = ""
		}
	}
	// Label the entry with the procs value instead of discarding it with the
	// suffix: known from the child process, else recovered from the names.
	// go test appends -N to every name whenever it runs at N > 1, so an
	// input where no name ends in -<digits> was run at GOMAXPROCS=1.
	switch {
	case knownProcs > 0:
		e.Procs = knownProcs
	case suffix != "":
		e.Procs, _ = strconv.Atoi(suffix[1:])
	case !slices.ContainsFunc(names, hasNumericTail):
		e.Procs = 1
	}
	byName := map[string]int{}
	for _, l := range lines {
		name := strings.TrimSuffix(l.name, suffix)
		idx, ok := byName[name]
		if !ok {
			idx = len(e.Bench)
			byName[name] = idx
			e.Bench = append(e.Bench, Benchmark{Name: name})
		}
		e.Bench[idx].Runs = append(e.Bench[idx].Runs, l.run)
	}
	sort.SliceStable(e.Bench, func(a, b int) bool { return e.Bench[a].Name < e.Bench[b].Name })
	return e, nil
}

// commonProcsSuffix returns the "-N" GOMAXPROCS suffix shared by every
// result-line name, or "" when there is none. go test appends the same
// GOMAXPROCS value to every benchmark name of a run (and appends nothing
// when GOMAXPROCS is 1), so the suffix is real only when it is consistent
// across all lines. Stripping any trailing -<number> per line — the old
// behaviour — corrupted suffix-free runs: with GOMAXPROCS=1 a sub-benchmark
// like BenchmarkHotPath/size-128 lost its -128 and merged with size-64's
// runs.
//
// Residual -input ambiguity: a GOMAXPROCS=1 file whose every line is the
// same single numeric-named sub-benchmark (only size-128, nothing else) is
// textually indistinguishable from a suffixed run and still strips. When
// benchjson runs go test itself the caller passes the child's GOMAXPROCS
// to parseBench, which closes that hole for the common path.
func commonProcsSuffix(names []string) string {
	suffix := ""
	for i, name := range names {
		if !hasNumericTail(name) {
			return ""
		}
		j := strings.LastIndexByte(name, '-')
		if i == 0 {
			suffix = name[j:]
		} else if name[j:] != suffix {
			return ""
		}
	}
	return suffix
}

// hasNumericTail reports whether name ends in -<digits>.
func hasNumericTail(name string) bool {
	j := strings.LastIndexByte(name, '-')
	if j < 0 {
		return false
	}
	_, err := strconv.Atoi(name[j+1:])
	return err == nil
}
