// Package experiments regenerates every table and figure of Even–Medina
// (SPAA 2011) plus the theorem-shaped measurements listed in DESIGN.md §5.
// It is the engine behind cmd/experiments (which writes EXPERIMENTS.md) and
// bench_test.go (one benchmark per experiment id).
//
// Each experiment registers itself (see registry.go) as an Experiment with a
// stable ID; the Runner (runner.go) executes any selected subset over a
// bounded pool of goroutines, streaming results in canonical order as they
// finish. Every experiment draws all of its randomness from the Config it
// receives, whose seeds are derived from the experiment ID (and, for
// sub-cases, a sub-case key) alone, so a parallel run is byte-identical to
// a serial one at any worker count.
//
// Run functions are fallible and cancellable: they return an error wrapping
// ErrSkipped when sub-cases could not run (the skipped list also surfaces
// in the report notes), and they honour context cancellation between
// sub-cases via Config.Sweep.
//
// Competitive ratios are reported as certified_upper_bound / throughput,
// where the upper bound comes from optbound.DualUpperBound (weak duality)
// or from instances with OPT known by construction; the certificate used is
// always named in the table.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"gridroute/internal/stats"
)

// ErrSkipped is the sentinel wrapped by every "sub-cases could not run"
// error. The runner treats it as a deterministic partial result — the
// report is still rendered — unlike real failures, which render only the
// error.
var ErrSkipped = errors.New("sub-cases skipped")

// Report is the outcome of one experiment. Run functions fill Tables and
// Notes (SkipList.Apply appends the skipped-sub-cases note); the Runner
// stamps ID and Title from the registry entry, which is their single
// source of truth.
type Report struct {
	ID     string
	Title  string
	Tables []*stats.Table
	Notes  []string
}

// Markdown renders the report section exactly as it appears in
// EXPERIMENTS.md. The output depends only on the report contents, never on
// wall-clock time or execution order, so it doubles as the determinism
// witness for parallel runs.
func (r Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n## %s — %s\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.Markdown())
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "> %s\n", n)
	}
	return b.String()
}

// Config carries everything an experiment is allowed to depend on: the
// sweep mode, its identity, and the RNG seeds. Experiments must derive all
// randomness via RNG or SubRNG so that results are a pure function of
// (ID, Config) — never of scheduling order or worker count.
type Config struct {
	// Quick selects the reduced sweep (seconds instead of minutes).
	Quick bool
	// ID is the experiment's registry ID, stamped by the Runner. Sub-case
	// seeds (SubRNG) are derived from it, so they survive any refactoring
	// of the base Seed.
	ID string
	// Seed is the base RNG seed; the Runner derives it from the experiment
	// ID via SeedFor, making results independent of scheduling order.
	Seed int64

	// pool is the shared sub-task pool Sweep dispatches to, and lease the
	// per-attempt slot accounting that lets the Runner reclaim slots from
	// an abandoned (timed-out) attempt. A zero Config (tests, benchmarks)
	// has no pool and sweeps inline.
	pool  *subpool
	lease *lease
	// subTimeout is Policy.SubTimeout, stamped by the Runner: the
	// individual bound SweepResults applies to each sub-case.
	subTimeout time.Duration
}

// RNG returns a fresh deterministic generator for the given stream. Distinct
// streams within one experiment decorrelate its sub-sweeps, and every call
// returns an independent generator, so concurrent sub-cases may each take
// their own copy of the same stream.
func (c Config) RNG(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(c.Seed*1000003 + stream))
}

// SubRNG returns a fresh generator seeded from (ID, subkey) alone — the
// per-sub-case analogue of the Runner's per-experiment seeding. Sub-cases
// that name their (n, parameters) in the subkey get identical randomness at
// any worker count and in any execution order.
func (c Config) SubRNG(subkey string) *rand.Rand {
	return rand.New(rand.NewSource(SeedFor(c.ID, subkey)))
}

// Sweep runs f(0..n-1) over the Runner's shared sub-task pool, which is
// sized by -j and shared between experiments, so at most -j sub-tasks run
// at once across the whole sweep — intra-experiment parallelism cannot
// multiply the bound (experiment-level workers, also capped at -j, may
// additionally do light orchestration work while their sub-tasks run).
// Each f must write only to its own
// per-index slot; callers assemble table rows in index order afterwards,
// which keeps output byte-identical at any worker count. Once ctx is
// cancelled no further sub-cases start; in-flight ones are waited for, then
// the context's error is returned. A Config built by hand (tests,
// benchmarks) has no pool and sweeps inline on the calling goroutine.
//
// Sweep never abandons a sub-case: because f writes into caller-shared
// state, a timed-out sub-case could not be discarded safely. Every
// registered experiment therefore sweeps via SweepResults (which returns
// results through per-index channels and honours Policy.SubTimeout);
// Sweep remains the minimal primitive for callers whose sub-cases share
// state and need no individual bounding — hand-built Configs in tests and
// benchmarks, and the runner's own pool-reclaim tests.
func (c Config) Sweep(ctx context.Context, n int, f func(i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if c.pool == nil {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			f(i)
		}
		return nil
	}
	l := c.lease
	if l == nil {
		l = &lease{}
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		// Acquire the slot before spawning so dispatch blocks while the
		// machine is saturated; sub-tasks never acquire further slots, so
		// the pool cannot deadlock. acquire fails once ctx is done.
		if err := c.pool.acquire(ctx, l); err != nil {
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer c.pool.release(l)
			f(i)
		}(i)
	}
	wg.Wait()
	return ctx.Err()
}

// SweepResults runs f(0..n-1) over the Runner's shared sub-task pool (see
// Config.Sweep for the pooling and determinism contract) and returns the
// per-index results. Unlike Sweep, each sub-case is individually bounded
// by Policy.SubTimeout: a sub-case that overruns its budget is abandoned —
// its pool slot is reclaimed so it cannot starve the rest of the sweep,
// and its eventual result is discarded — and its index is reported in
// timedOut (sorted). Abandoned sub-cases leave the zero value of T in
// their slot, which is why results are returned rather than written to
// shared state: the hung goroutine's late result dies in a buffered
// channel instead of racing the caller.
//
// The same discipline applies to skip reporting: f receives a skip
// function (same signature as SkipList.Skip) that buffers per index, and
// skips flow into the caller's SkipList only for sub-cases that finished
// in time — an abandoned sub-case's late skips vanish with its result
// instead of landing nondeterministically after the report was assembled.
//
// A panicking sub-case is re-thrown on the calling goroutine after the
// sweep drains, where the runner's containment turns it into a failed
// experiment instead of a crashed worker — unless the sub-case had
// already been abandoned at SubTimeout, in which case the late panic is
// discarded with the rest of its result (the sub-case is already reported
// lost via timedOut). err is non-nil only when ctx was cancelled.
func SweepResults[T any](ctx context.Context, cfg Config, skips *SkipList, n int, f func(i int, skip func(format string, args ...any)) T) (out []T, timedOut []int, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out = make([]T, n)
	type subResult struct {
		v        T
		skips    []string
		panicked any
	}
	call := func(i int, done chan<- subResult) {
		var r subResult
		skip := func(format string, args ...any) {
			r.skips = append(r.skips, fmt.Sprintf(format, args...))
		}
		defer func() {
			if p := recover(); p != nil {
				r.panicked = p
			}
			done <- r
		}()
		r.v = f(i, skip)
	}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		panicked any
	)
	settle := func(i int, done <-chan subResult, l *lease) {
		var timer <-chan time.Time
		if cfg.subTimeout > 0 {
			t := time.NewTimer(cfg.subTimeout) //gridlint:allow subprocess watchdog timeout; kills hung runs, never shapes results
			defer t.Stop()
			timer = t.C
		}
		select {
		case r := <-done:
			mu.Lock()
			if r.panicked != nil && panicked == nil {
				panicked = r.panicked
			}
			mu.Unlock()
			if skips != nil {
				for _, s := range r.skips {
					skips.Skip("%s", s)
				}
			}
			out[i] = r.v
		case <-timer:
			if cfg.pool != nil {
				cfg.pool.reclaim(l)
			}
			mu.Lock()
			timedOut = append(timedOut, i)
			mu.Unlock()
		}
	}
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			break
		}
		// Each sub-case gets its own lease when it can be abandoned
		// individually (adopted by the attempt lease, so an attempt-level
		// reclaim still frees it); reclaiming one slot never frees its
		// siblings'.
		l := cfg.lease
		if cfg.subTimeout > 0 || l == nil {
			l = &lease{}
		}
		if cfg.pool != nil {
			if cfg.pool.acquire(ctx, l) != nil {
				break
			}
			if l != cfg.lease {
				cfg.pool.adopt(cfg.lease, l)
			}
		}
		done := make(chan subResult, 1)
		go func(i int, l *lease) {
			if cfg.pool != nil {
				defer cfg.pool.release(l)
			}
			call(i, done)
		}(i, l)
		if cfg.pool == nil {
			// Hand-built Configs (tests, benchmarks) sweep serially, like
			// Sweep, but still honour the per-sub-case bound.
			settle(i, done, l)
			continue
		}
		wg.Add(1)
		go func(i int, l *lease) {
			defer wg.Done()
			settle(i, done, l)
		}(i, l)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	sort.Ints(timedOut)
	return out, timedOut, ctx.Err()
}

// SkipList collects the sub-cases an experiment could not run. It is safe
// for concurrent use from Sweep sub-tasks; the rendered list is sorted so
// notes and errors are deterministic regardless of completion order.
type SkipList struct {
	mu    sync.Mutex
	items []string
}

// Skip records one skipped sub-case.
func (s *SkipList) Skip(format string, args ...any) {
	s.mu.Lock()
	s.items = append(s.items, fmt.Sprintf(format, args...))
	s.mu.Unlock()
}

// SkipTimeouts records the sub-cases a SweepResults call abandoned at
// Policy.SubTimeout; name renders the sub-case key for index i. Like every
// skip, timeouts surface in the report notes and the ErrSkipped error —
// deterministic partial results, not failures.
func (s *SkipList) SkipTimeouts(timedOut []int, name func(i int) string) {
	for _, i := range timedOut {
		s.Skip("%s: sub-case timeout", name(i))
	}
}

// Len reports how many sub-cases were skipped.
func (s *SkipList) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}

func (s *SkipList) sorted() []string {
	s.mu.Lock()
	out := append([]string(nil), s.items...)
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// Apply appends the sorted skip items to the report's notes as one
// skipped-sub-cases note, making the loss visible in EXPERIMENTS.md rather
// than silently thinning the tables. The note goes into a fresh array, so
// a Notes slice shared with another report is never written through.
func (s *SkipList) Apply(r *Report) {
	items := s.sorted()
	if len(items) == 0 {
		return
	}
	note := fmt.Sprintf("⚠ skipped sub-cases: %s.", strings.Join(items, "; "))
	r.Notes = append(r.Notes[:len(r.Notes):len(r.Notes)], note)
}

// Err returns nil when nothing was skipped, and otherwise an error wrapping
// ErrSkipped that names every skipped sub-case.
func (s *SkipList) Err() error {
	items := s.sorted()
	if len(items) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrSkipped, strings.Join(items, "; "))
}

// finish is the common experiment epilogue: surface the skip list in the
// notes and as a typed error.
func (s *SkipList) finish(rep Report) (Report, error) {
	s.Apply(&rep)
	return rep, s.Err()
}

// Sizes returns the n-sweep for the configured mode.
func (c Config) Sizes() []int { return Sizes(c.Quick) }

// Sizes returns the n-sweep for a given mode.
func Sizes(quick bool) []int {
	if quick {
		return []int{32, 64}
	}
	return []int{32, 64, 128, 256}
}

// ratio is the certified competitive ratio upper/tp. Zero throughput means
// the algorithm delivered nothing against a positive certificate: the ratio
// is unbounded and reported as +Inf (rendered "∞" by stats.Table), never as
// the perfect-looking 0 the old harness printed.
func ratio(upper float64, tp int) float64 {
	if tp == 0 {
		return math.Inf(1)
	}
	return upper / float64(tp)
}

func log2int(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	if l < 1 {
		l = 1
	}
	return l
}
