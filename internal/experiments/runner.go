package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"gridroute/internal/scenario"
)

// Result is one executed experiment: its report, the error that ended it
// (nil on success; wraps ErrSkipped for deterministic partial results) and
// its wall-clock time.
type Result struct {
	Experiment Experiment
	Report     Report
	Err        error
	Duration   time.Duration
}

// Runner executes a set of experiments over a bounded pool of goroutines.
// Results stream back in input order regardless of which worker finished
// first, and every experiment is seeded from its ID alone (SeedFor), so the
// rendered tables are byte-identical for any Workers value.
type Runner struct {
	// Workers bounds both the experiment-level pool and the shared sub-task
	// semaphore (Sweep); values < 1 mean GOMAXPROCS.
	Workers int
	// Quick selects the reduced sweep.
	Quick bool
}

// SeedFor derives the deterministic seed for an experiment ID and an
// optional chain of sub-case keys (FNV-1a over the NUL-joined parts).
// Scheduling order never enters the seed: SeedFor("T1") names the same
// stream on every machine, and SeedFor("T1", "n=64") a distinct one.
// It delegates to scenario.SeedFor — one implementation for the one
// seeding convention both registries promise.
func SeedFor(id string, subkeys ...string) int64 {
	return scenario.SeedFor(id, subkeys...)
}

func (r Runner) workers(jobs int) (expWorkers, slots int) {
	slots = r.Workers
	if slots < 1 {
		slots = runtime.GOMAXPROCS(0)
	}
	expWorkers = slots
	if expWorkers > jobs {
		expWorkers = jobs
	}
	return expWorkers, slots
}

// Stream executes the experiments and emits one Result per input on the
// returned channel, in input order, as soon as each becomes available: a
// small reorder buffer holds out-of-order finishers until their turn. The
// channel always delivers exactly len(exps) results and is then closed —
// after ctx is cancelled, not-yet-started experiments drain immediately as
// Results whose Err is ctx's error, so a consumer can flush partial output
// and still see the full accounting.
func (r Runner) Stream(ctx context.Context, exps []Experiment) <-chan Result {
	if ctx == nil {
		ctx = context.Background()
	}
	expWorkers, slots := r.workers(len(exps))
	// One sub-task slot per worker, shared by every experiment so that
	// intra-experiment parallelism cannot multiply the -j bound.
	sem := make(chan struct{}, slots)
	type indexed struct {
		i   int
		res Result
	}
	jobs := make(chan int)
	finished := make(chan indexed)
	for w := 0; w < expWorkers; w++ {
		go func() {
			for i := range jobs {
				e := exps[i]
				if err := ctx.Err(); err != nil {
					// Drain without running so every index still yields a
					// Result and the stream can close.
					finished <- indexed{i, Result{
						Experiment: e,
						Report:     Report{ID: e.ID, Title: e.Title},
						Err:        err,
					}}
					continue
				}
				finished <- indexed{i, r.runOne(ctx, e, sem)}
			}
		}()
	}
	go func() {
		for i := range exps {
			jobs <- i
		}
		close(jobs)
	}()
	out := make(chan Result)
	go func() {
		defer close(out)
		pending := make(map[int]Result)
		next := 0
		for received := 0; received < len(exps); received++ {
			fin := <-finished
			pending[fin.i] = fin.res
			for {
				res, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				out <- res
				next++
			}
		}
	}()
	return out
}

// runOne runs a single experiment and times it.
func (r Runner) runOne(ctx context.Context, e Experiment, sem chan struct{}) Result {
	res := Result{Experiment: e}
	cfg := Config{Quick: r.Quick, ID: e.ID, Seed: SeedFor(e.ID), sem: sem}
	start := time.Now() //gridlint:allow experiment wall-time measurement; reported, never fed back into results
	res.Report, res.Err = safeRun(ctx, e, cfg)
	res.Duration = time.Since(start) //gridlint:allow experiment wall-time measurement; reported, never fed back into results
	// The registry entry is the single source of truth for ID and Title;
	// Run functions only produce tables and notes.
	res.Report.ID, res.Report.Title = e.ID, e.Title
	return res
}

// safeRun converts an experiment panic into an error so one broken
// experiment cannot take down the worker (or the whole sweep).
func safeRun(ctx context.Context, e Experiment, cfg Config) (rep Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiment %s panicked: %v", e.ID, p)
		}
	}()
	return e.Run(ctx, cfg)
}

// Run executes the experiments and returns one Result per input, in input
// order, after the whole set has drained.
func (r Runner) Run(ctx context.Context, exps []Experiment) []Result {
	results := make([]Result, 0, len(exps))
	for res := range r.Stream(ctx, exps) {
		results = append(results, res)
	}
	return results
}

// RunAll executes every registered experiment.
func (r Runner) RunAll(ctx context.Context) []Result {
	return r.Run(ctx, Registered())
}
