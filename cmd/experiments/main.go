// Command experiments regenerates EXPERIMENTS.md: every table and figure of
// Even–Medina (SPAA 2011) in executable form, with certified OPT bounds.
//
// Experiments stream in parallel over a bounded worker pool and render
// incrementally in canonical order as they finish; each experiment (and
// each sub-case of its n-sweep) is seeded from its ID alone, so the tables
// are byte-identical for any -j. On SIGINT the sweep stops at the next
// sub-case boundary and the partial markdown/JSON written so far is flushed
// to -out/-json instead of being discarded.
//
// Usage:
//
//	go run ./cmd/experiments                 # full sweep (a few minutes)
//	go run ./cmd/experiments -quick          # small sweep (seconds)
//	go run ./cmd/experiments -quick -j 4     # same tables, 4 workers
//	go run ./cmd/experiments -dp-workers 4   # parallel admission DP, same tables
//	go run ./cmd/experiments -run 'T[12]'    # only experiments matching the regexp
//	go run ./cmd/experiments -timeout 2m     # per-experiment attempt timeout
//	go run ./cmd/experiments -subtimeout 20s # per-sub-case timeout inside sweeps
//	go run ./cmd/experiments -retries 1      # retry failed experiments once
//	go run ./cmd/experiments -out FILE       # write markdown to FILE instead of stdout
//	go run ./cmd/experiments -json FILE      # also write machine-readable results
//	go run ./cmd/experiments -list           # list registered experiment IDs
//	go run ./cmd/experiments -cpuprofile cpu.out -memprofile mem.out
//	                                         # capture pprof profiles of the sweep
//
// Sharding (distribute one sweep across machines, then merge):
//
//	go run ./cmd/experiments -shard 0/2 -artifact shard-0-of-2.json   # machine A
//	go run ./cmd/experiments -shard 1/2 -artifact shard-1-of-2.json   # machine B
//	go run ./cmd/experiments -merge shard-0-of-2.json shard-1-of-2.json \
//	    -out EXPERIMENTS.md -json BENCH_experiments.json
//
// The merged markdown and (stable) JSON are byte-identical to an unsharded
// run; incomplete or overlapping artifact sets exit 2 with a diagnostic.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gridroute/internal/core"
	"gridroute/internal/experiments"
	"gridroute/internal/shard"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Restore default signal handling once the first signal has cancelled
	// the context: cancellation is cooperative at sub-case boundaries, so a
	// second Ctrl-C must be able to kill a sweep stuck in a long sub-case.
	go func() {
		<-ctx.Done()
		stop()
	}()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus process-global state: it parses args, streams the
// selected experiments, and returns the exit code (0 success, 1 experiment
// or write failure, 2 usage error, 130 interrupted-with-partial-results).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run the reduced sweep")
	out := fs.String("out", "", "markdown output file (default stdout)")
	runPat := fs.String("run", "", "regexp selecting experiment IDs or tags (default: all)")
	workers := fs.Int("j", runtime.NumCPU(), "bound on concurrent experiments and (separately) on concurrent sub-tasks across all experiments (1 = serial)")
	jsonOut := fs.String("json", "", "also write machine-readable results (e.g. BENCH_experiments.json)")
	list := fs.Bool("list", false, "list registered experiments and exit")
	timeout := fs.Duration("timeout", 0, "per-experiment attempt timeout (0 = none)")
	subTimeout := fs.Duration("subtimeout", 0, "per-sub-case timeout within each experiment's sweep (0 = none; overruns surface as skipped sub-cases)")
	retries := fs.Int("retries", 0, "how many times to re-run a failed experiment")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the sweep to this file")
	shardSpec := fs.String("shard", "", "run only shard i of m (\"i/m\", 0-based) and write a mergeable artifact (see -artifact)")
	artifact := fs.String("artifact", "", "shard artifact output file (default shard-<i>-of-<m>.json; only with -shard)")
	merge := fs.Bool("merge", false, "merge the shard artifacts given as arguments into canonical markdown/JSON instead of running experiments")
	stableJSON := fs.Bool("stable-json", false, "omit timing/machine-dependent fields (durations, workers) from -json so outputs diff byte-identically across runs; implied by -merge")
	dpWorkers := fs.Int("dp-workers", 1, "wavefront workers per admission DP (1 = serial; results are bit-identical at any setting)")
	// Honour the standard `--` end-of-flags terminator before any
	// re-parsing below can swallow it: everything after it is positional.
	var files, terminated []string
	parseArgs := args
	for i, a := range args {
		if a == "--" {
			parseArgs, terminated = args[:i], args[i+1:]
			break
		}
	}
	if err := fs.Parse(parseArgs); err != nil {
		return 2
	}
	// The standard flag package stops at the first positional argument, but
	// `-merge a.json b.json -out merged.md` is the natural spelling: collect
	// positionals and keep parsing so flags and artifact files may intermix.
	for rest := fs.Args(); len(rest) > 0; rest = fs.Args() {
		if strings.HasPrefix(rest[0], "-") && len(rest[0]) > 1 {
			if err := fs.Parse(rest); err != nil {
				return 2
			}
			continue
		}
		files = append(files, rest[0])
		if err := fs.Parse(rest[1:]); err != nil {
			return 2
		}
	}
	files = append(files, terminated...)

	if *merge && *shardSpec != "" {
		fmt.Fprintln(stderr, "experiments: -merge and -shard are mutually exclusive")
		return 2
	}
	if *artifact != "" && *shardSpec == "" {
		fmt.Fprintln(stderr, "experiments: -artifact requires -shard")
		return 2
	}
	if *merge {
		// Mode, selection and execution policy come from the artifacts'
		// stamps; accepting sweep-shaping flags here would let them appear
		// to work while doing nothing.
		shapers := map[string]bool{"quick": true, "run": true, "j": true, "timeout": true,
			"subtimeout": true, "retries": true, "list": true, "cpuprofile": true,
			"memprofile": true, "dp-workers": true}
		conflict := ""
		fs.Visit(func(f *flag.Flag) {
			if shapers[f.Name] && conflict == "" {
				conflict = f.Name
			}
		})
		if conflict != "" {
			fmt.Fprintf(stderr, "experiments: -%s has no effect with -merge (mode and selection come from the shard artifacts)\n", conflict)
			return 2
		}
		return runMerge(files, *out, *jsonOut, stdout, stderr)
	}
	if len(files) > 0 {
		fmt.Fprintf(stderr, "experiments: unexpected arguments %q (artifact files are only accepted with -merge)\n", files)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, err)
			}
		}()
	}

	if *list {
		for _, e := range experiments.Registered() {
			fmt.Fprintf(stdout, "%-8s %s [%s]\n", e.ID, e.Title, strings.Join(e.Tags, " "))
		}
		return 0
	}

	// DP parallelism is a pure throughput knob (decisions are
	// bit-identical), set process-wide so every DetConfig literal in the
	// registry picks it up.
	core.SetDefaultDPWorkers(*dpWorkers)

	exps, err := experiments.Select(*runPat)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if len(exps) == 0 {
		fmt.Fprintf(stderr, "no experiments matched -run %q (known IDs: %s; tags: %s)\n",
			*runPat, strings.Join(experiments.IDs(), ", "), strings.Join(experiments.Tags(), ", "))
		return 2
	}

	// Shard mode: partition the selected sweep's canonical units and keep
	// only shard i's jobs. The plan is a pure function of (selection, m),
	// so every machine computes the same assignment.
	jobs := make([]experiments.Job, len(exps))
	for i, e := range exps {
		jobs[i] = experiments.Job{Experiment: e}
	}
	var plan shard.Plan
	shardIdx := -1
	if *shardSpec != "" {
		var m int
		var err error
		if shardIdx, m, err = parseShardSpec(*shardSpec); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if plan, err = shard.NewPlan(exps, m); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if jobs, err = plan.Jobs(shardIdx); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if *artifact == "" {
			*artifact = fmt.Sprintf("shard-%d-of-%d.json", shardIdx, m)
		}
	}

	runner := experiments.Runner{
		Workers: *workers,
		Quick:   *quick,
		Policy:  experiments.Policy{Timeout: *timeout, SubTimeout: *subTimeout, Retries: *retries},
	}

	mode := "full"
	if *quick {
		mode = "quick"
	}
	// Shard output must never pass for the canonical document: the markdown
	// header and the JSON document both carry the shard stamp.
	modeDesc, shardLabel := mode, ""
	if shardIdx >= 0 {
		shardLabel = fmt.Sprintf("%d/%d", shardIdx, plan.M)
		modeDesc = fmt.Sprintf("%s — **shard %s only** (merge the shard artifacts for the canonical document)", mode, shardLabel)
	}
	var b strings.Builder
	writeHeader(&b, modeDesc)
	toStdout := *out == ""
	if toStdout {
		fmt.Fprint(stdout, b.String())
	}

	// Stream: each result renders (and prints) the moment it arrives; the
	// runner's reorder buffer already delivers canonical order. The channel
	// always drains fully — after SIGINT the unstarted experiments flush
	// through immediately as cancelled results.
	var results []experiments.Result
	var incomplete, failed []string
	for res := range runner.StreamJobs(ctx, jobs) {
		results = append(results, res)
		section, f, c := sectionFor(res)
		switch {
		case c:
			incomplete = append(incomplete, res.Experiment.ID)
		case f:
			failed = append(failed, res.Experiment.ID)
		}
		b.WriteString(section)
		if toStdout {
			fmt.Fprint(stdout, section)
		}
		fmt.Fprintf(stderr, "%-8s %v%s\n", res.Experiment.ID, res.Duration.Round(time.Millisecond), statusSuffix(res))
	}

	interrupted := ctx.Err() != nil
	if interrupted {
		trailer := interruptTrailer(len(results), incomplete)
		b.WriteString(trailer)
		if toStdout {
			fmt.Fprint(stdout, trailer)
		}
	}

	exit := 0
	// In shard mode the artifact is the primary output — the mergeable
	// record of this machine's share of the sweep — so it is flushed first
	// and must survive a failing -out/-json path.
	if shardIdx >= 0 {
		if err := writeArtifactFile(*artifact, plan, shardIdx, *quick, *runPat, interrupted, results); err != nil {
			fmt.Fprintln(stderr, err)
			exit = 1
		}
	}
	// Markdown before JSON: it is the primary artifact of an unsharded
	// sweep that may have taken minutes.
	if *out != "" {
		if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			exit = 1
		}
	}
	if *jsonOut != "" {
		opts := experiments.JSONOptions{Quick: *quick, Workers: *workers, Partial: interrupted, Stable: *stableJSON, Shard: shardLabel}
		if err := writeJSONFile(*jsonOut, opts, results); err != nil {
			fmt.Fprintln(stderr, err)
			exit = 1
		}
	}
	switch {
	case exit != 0:
		// A failed artifact/-out/-json flush outranks the interrupt status:
		// exit 130 promises "partial results were saved", which would be a
		// lie here.
		return exit
	case interrupted:
		return 130
	case len(failed) > 0:
		fmt.Fprintf(stderr, "failed experiments: %s\n", strings.Join(failed, ", "))
		return 1
	}
	return 0
}

// runMerge validates and merges shard artifacts into the canonical sweep
// output: markdown and stable JSON byte-identical to an unsharded run.
// Invalid, incomplete or overlapping artifact sets exit 2.
func runMerge(files []string, out, jsonOut string, stdout, stderr io.Writer) int {
	if len(files) == 0 {
		fmt.Fprintln(stderr, "experiments: -merge needs at least one shard artifact file")
		return 2
	}
	arts := make([]shard.Artifact, 0, len(files))
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		a, err := shard.ReadArtifact(f, path)
		f.Close()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		arts = append(arts, a)
	}
	merged, err := shard.Merge(arts, files)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	mode := "full"
	if merged.Quick {
		mode = "quick"
	}
	var b strings.Builder
	writeHeader(&b, mode)
	var incomplete, failed []string
	for _, res := range merged.Results {
		section, f, c := sectionFor(res)
		switch {
		case c:
			incomplete = append(incomplete, res.Experiment.ID)
		case f:
			failed = append(failed, res.Experiment.ID)
		}
		b.WriteString(section)
	}
	if merged.Partial {
		b.WriteString(interruptTrailer(len(merged.Results), incomplete))
	}
	if out == "" {
		fmt.Fprint(stdout, b.String())
	}

	exit := 0
	if out != "" {
		if err := os.WriteFile(out, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			exit = 1
		}
	}
	if jsonOut != "" {
		// Merged JSON is always the stable form: per-shard wall-clock and
		// worker counts have no meaningful merged equivalent, and omitting
		// them is what makes the merge byte-comparable to an unsharded run.
		opts := experiments.JSONOptions{Quick: merged.Quick, Partial: merged.Partial, Stable: true}
		if err := writeJSONFile(jsonOut, opts, merged.Results); err != nil {
			fmt.Fprintln(stderr, err)
			exit = 1
		}
	}
	switch {
	case exit != 0:
		return exit
	case merged.Partial:
		return 130
	case len(failed) > 0:
		fmt.Fprintf(stderr, "failed experiments: %s\n", strings.Join(failed, ", "))
		return 1
	}
	return 0
}

// sectionFor renders one result's markdown section and classifies it:
// failed (hard error) or cancelled (sweep interrupted before it ran).
func sectionFor(res experiments.Result) (section string, failed, cancelled bool) {
	switch {
	case res.Err == nil || errors.Is(res.Err, experiments.ErrSkipped):
		return res.Report.Markdown(), false, false
	case isCancellation(res.Err):
		return "", false, true
	default:
		return fmt.Sprintf("\n## %s — %s\n\n> ⚠ failed after %d attempt(s): %v\n",
			res.Experiment.ID, res.Experiment.Title, res.Attempts, res.Err), true, false
	}
}

func interruptTrailer(total int, incomplete []string) string {
	trailer := fmt.Sprintf("\n> **Sweep interrupted** — %d of %d experiments completed; results above are partial.",
		total-len(incomplete), total)
	if len(incomplete) > 0 {
		trailer += fmt.Sprintf(" Not completed: %s.", strings.Join(incomplete, ", "))
	}
	return trailer + "\n"
}

// parseShardSpec parses "i/m" (0 ≤ i < m).
func parseShardSpec(spec string) (i, m int, err error) {
	bad := func() (int, int, error) {
		return 0, 0, fmt.Errorf("experiments: bad -shard %q: want \"i/m\" with 0 <= i < m (e.g. 0/2)", spec)
	}
	is, ms, ok := strings.Cut(spec, "/")
	if !ok {
		return bad()
	}
	if i, err = strconv.Atoi(is); err != nil {
		return bad()
	}
	if m, err = strconv.Atoi(ms); err != nil {
		return bad()
	}
	if m < 1 || i < 0 || i >= m {
		return bad()
	}
	return i, m, nil
}

func writeArtifactFile(path string, plan shard.Plan, idx int, quick bool, runPat string, partial bool, results []experiments.Result) error {
	a, err := shard.BuildArtifact(plan, idx, quick, runPat, partial, results)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := shard.WriteArtifact(f, a); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeHeader(w io.Writer, mode string) {
	fmt.Fprintf(w, `# EXPERIMENTS — paper vs. measured

Reproduction harness for "Online Packet-Routing in Grids with Bounded
Buffers" (Even & Medina, SPAA 2011). Regenerate with:

    go run ./cmd/experiments > EXPERIMENTS.md

Mode: %s sweep.

**How to read the ratios.** The paper proves competitive ratios against an
adversary's optimal routing; exact integral OPT is NP-hard, so every ratio
below is measured against a *certificate*: either a dual-fitting upper
bound on the fractional optimum (Appendix E weak duality — may overestimate
the true ratio by up to 2× plus the integrality gap) or an instance whose
OPT is known by construction. The claims being checked are the paper's
*shapes*: which algorithm wins, how ratios scale with n, and where the
(B, c) parameter regimes change behaviour — not absolute constants, which
the paper itself leaves astronomically loose (γ = 200, k⁴ tile factors).

The ASCII reproductions of Figures 1–10/12 are printed by `+"`go run ./cmd/viz`"+`;
their structural claims are enforced by unit tests (see DESIGN.md §5).

`, mode)
}

func statusSuffix(res experiments.Result) string {
	var parts []string
	if res.Attempts > 1 {
		parts = append(parts, fmt.Sprintf("%d attempts", res.Attempts))
	}
	switch {
	case res.Err == nil:
	case errors.Is(res.Err, experiments.ErrSkipped):
		parts = append(parts, "partial: "+res.Err.Error())
	case isCancellation(res.Err):
		parts = append(parts, "cancelled")
	default:
		parts = append(parts, "FAILED: "+res.Err.Error())
	}
	if len(parts) == 0 {
		return ""
	}
	return " (" + strings.Join(parts, "; ") + ")"
}

// isCancellation reports whether the error is the caller's context being
// cancelled (SIGINT). A per-experiment Policy timeout surfaces as
// context.DeadlineExceeded instead and counts as a failure, not a
// cancellation of the sweep.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled)
}

func writeJSONFile(path string, opts experiments.JSONOptions, results []experiments.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := experiments.WriteJSONOpts(f, opts, results); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
