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
//	go run ./cmd/experiments                 # full sweep (5-9 s at -j 2 on a 2-CPU VM)
//	go run ./cmd/experiments -quick          # small sweep (seconds)
//	go run ./cmd/experiments -quick -j 4     # same tables, 4 workers
//	go run ./cmd/experiments -run 'T[12]'    # only experiments matching the regexp
//	go run ./cmd/experiments -out FILE       # write markdown to FILE instead of stdout
//	go run ./cmd/experiments -json FILE      # also write machine-readable results
//	go run ./cmd/experiments -list           # list registered experiment IDs
//	go run ./cmd/experiments -cpuprofile cpu.out -memprofile mem.out
//	                                         # capture pprof profiles of the sweep
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
	"strings"
	"syscall"
	"time"

	"gridroute/internal/experiments"
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
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the sweep to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "experiments: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *workers < 1 {
		fmt.Fprintf(stderr, "experiments: bad -j %d: want at least 1 worker\n", *workers)
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

	runner := experiments.Runner{Workers: *workers, Quick: *quick}

	mode := "full"
	if *quick {
		mode = "quick"
	}
	var b strings.Builder
	writeHeader(&b, mode)
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
	for res := range runner.Stream(ctx, exps) {
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
	// Markdown before JSON: it is the primary artifact of the sweep.
	if *out != "" {
		if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			exit = 1
		}
	}
	if *jsonOut != "" {
		if err := writeJSONFile(*jsonOut, *quick, *workers, interrupted, results); err != nil {
			fmt.Fprintln(stderr, err)
			exit = 1
		}
	}
	switch {
	case exit != 0:
		// A failed -out/-json flush outranks the interrupt status:
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

// sectionFor renders one result's markdown section and classifies it:
// failed (hard error) or cancelled (sweep interrupted before it ran).
func sectionFor(res experiments.Result) (section string, failed, cancelled bool) {
	switch {
	case res.Err == nil || errors.Is(res.Err, experiments.ErrSkipped):
		return res.Report.Markdown(), false, false
	case isCancellation(res.Err):
		return "", false, true
	default:
		return fmt.Sprintf("\n## %s — %s\n\n> ⚠ failed: %v\n",
			res.Experiment.ID, res.Experiment.Title, res.Err), true, false
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
their structural claims are checked by the `+"`BenchmarkFigure*`"+` benchmarks in
`+"`bench_test.go`"+`, which CI's bench smoke runs once.

`, mode)
}

func statusSuffix(res experiments.Result) string {
	switch {
	case res.Err == nil:
		return ""
	case errors.Is(res.Err, experiments.ErrSkipped):
		return " (partial: " + res.Err.Error() + ")"
	case isCancellation(res.Err):
		return " (cancelled)"
	default:
		return " (FAILED: " + res.Err.Error() + ")"
	}
}

// isCancellation reports whether the error is the caller's context being
// cancelled (SIGINT).
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled)
}

func writeJSONFile(path string, quick bool, workers int, partial bool, results []experiments.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := experiments.WriteJSON(f, quick, workers, partial, results); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
