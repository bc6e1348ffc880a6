package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
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

// Policy bounds how long the Runner lets an experiment, and each of its
// sub-cases, run. Experiments are seeded and deterministic, so a failure
// is reported once and never re-run.
type Policy struct {
	// Timeout bounds one experiment's run; 0 means no limit. Experiments
	// observe it cooperatively between sub-cases (Config.Sweep); a run
	// that overruns is abandoned and reported as context.DeadlineExceeded.
	Timeout time.Duration
	// SubTimeout bounds each individual sub-case of an experiment's
	// SweepResults sweeps; 0 means no limit. A sub-case that overruns is
	// abandoned (its pool slot reclaimed, its result discarded) and
	// surfaces as a skipped sub-case in the report — a deterministic
	// partial result, not a failure. Unlike Timeout, one slow sub-case
	// costs only its own table row, not the whole experiment.
	SubTimeout time.Duration
}

// Runner executes a set of experiments over a bounded pool of goroutines.
// Results stream back in input order regardless of which worker finished
// first, and every experiment is seeded from its ID alone (SeedFor), so the
// rendered tables are byte-identical for any Workers value.
type Runner struct {
	// Workers bounds both the experiment-level pool and the shared sub-task
	// pool (Config.Sweep); values < 1 mean GOMAXPROCS.
	Workers int
	// Quick selects the reduced sweep.
	Quick bool
	// Policy holds the per-experiment and per-sub-case timeouts (zero =
	// no time limit).
	Policy Policy
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

// subpool is the shared sub-task semaphore: one slot per -j worker, shared
// between experiments so intra-experiment parallelism cannot multiply the
// concurrency bound. Slots are held under a per-attempt lease so that when
// a timed-out attempt is abandoned, the slots its hung sub-tasks still
// hold can be reclaimed instead of starving every other experiment.
type subpool struct {
	mu   sync.Mutex
	cond *sync.Cond
	free int
}

func newSubpool(n int) *subpool {
	p := &subpool{free: n}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// lease is one attempt's slot accounting. All fields are guarded by the
// pool's mutex. Sub-cases that can be abandoned individually (SweepResults
// under Policy.SubTimeout) hold their own child leases, registered under
// the attempt lease so an attempt-level reclaim frees them too.
type lease struct {
	held      int
	abandoned bool
	children  []*lease
}

// acquire blocks until a slot is free or ctx is done.
func (p *subpool) acquire(ctx context.Context, l *lease) error {
	stop := context.AfterFunc(ctx, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.free == 0 && ctx.Err() == nil {
		p.cond.Wait()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	p.free--
	l.held++
	return nil
}

// release returns a slot unless the lease was already reclaimed (the
// runner freed the abandoned attempt's slots on its behalf).
func (p *subpool) release(l *lease) {
	p.mu.Lock()
	defer p.mu.Unlock()
	l.held--
	if l.abandoned {
		return
	}
	p.free++
	p.cond.Signal()
}

// reclaim frees every slot an abandoned attempt still holds — including
// slots held by its child leases — so a hung sub-task stops counting
// against the shared pool. The hung goroutine may keep computing (Go
// cannot kill it), but other experiments regain their concurrency; its own
// eventual release becomes a no-op.
func (p *subpool) reclaim(l *lease) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reclaimLocked(l)
	p.cond.Broadcast()
}

func (p *subpool) reclaimLocked(l *lease) {
	if l.abandoned {
		return
	}
	l.abandoned = true
	p.free += l.held
	for _, c := range l.children {
		p.reclaimLocked(c)
	}
}

// adopt registers child under parent so that reclaiming the parent (an
// abandoned attempt) also frees the child's slots. A child adopted into an
// already-abandoned parent is reclaimed immediately.
func (p *subpool) adopt(parent, child *lease) {
	if parent == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	parent.children = append(parent.children, child)
	if parent.abandoned {
		p.reclaimLocked(child)
		p.cond.Broadcast()
	}
}

func (r Runner) workers(jobs int) (expWorkers, poolSize int) {
	poolSize = r.Workers
	if poolSize < 1 {
		poolSize = runtime.GOMAXPROCS(0)
	}
	expWorkers = poolSize
	if expWorkers > jobs {
		expWorkers = jobs
	}
	return expWorkers, poolSize
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
	expWorkers, poolSize := r.workers(len(exps))
	pool := newSubpool(poolSize)
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
				finished <- indexed{i, r.runOne(ctx, e, pool)}
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
func (r Runner) runOne(ctx context.Context, e Experiment, pool *subpool) Result {
	res := Result{Experiment: e}
	start := time.Now() //gridlint:allow experiment wall-time measurement; reported, never fed back into results
	res.Report, res.Err = r.attempt(ctx, e, pool)
	res.Duration = time.Since(start) //gridlint:allow experiment wall-time measurement; reported, never fed back into results
	// The registry entry is the single source of truth for ID and Title;
	// Run functions only produce tables and notes.
	res.Report.ID, res.Report.Title = e.ID, e.Title
	return res
}

// attempt runs the experiment once. Without a timeout it runs inline and
// relies on the experiment observing ctx cooperatively (Config.Sweep checks
// between sub-cases). With a Policy timeout the run gets its own goroutine
// so a stuck experiment can be abandoned at the deadline — its sub-tasks
// stop at the next Sweep cancellation check and release their pool slots.
func (r Runner) attempt(ctx context.Context, e Experiment, pool *subpool) (Report, error) {
	cfg := Config{Quick: r.Quick, ID: e.ID, Seed: SeedFor(e.ID), pool: pool, lease: &lease{}, subTimeout: r.Policy.SubTimeout}
	if r.Policy.Timeout <= 0 {
		return safeRun(ctx, e, cfg)
	}
	actx, cancel := context.WithTimeout(ctx, r.Policy.Timeout)
	defer cancel()
	type outcome struct {
		rep Report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := safeRun(actx, e, cfg)
		done <- outcome{rep, err}
	}()
	select {
	case o := <-done:
		return o.rep, o.err
	case <-actx.Done():
		// Abandon the attempt and hand its still-held pool slots back so a
		// hung sub-case cannot starve the rest of the sweep.
		pool.reclaim(cfg.lease)
		return Report{}, actx.Err()
	}
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
