// Package experiments regenerates every table and figure of Even–Medina
// (SPAA 2011) plus theorem-shaped measurements; the registry (Registered,
// or `cmd/experiments -list`) names each one with its ID, title and tags.
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
// sub-cases via Sweep.
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
	// Quick selects the reduced sweep.
	Quick bool
	// ID is the experiment's registry ID, stamped by the Runner. Sub-case
	// seeds (SubRNG) are derived from it, so they survive any refactoring
	// of the base Seed.
	ID string
	// Seed is the base RNG seed; the Runner derives it from the experiment
	// ID via SeedFor, making results independent of scheduling order.
	Seed int64

	// sem is the Runner's sub-task semaphore that Sweep dispatches
	// through. A hand-built Config (tests, benchmarks) has none and
	// sweeps inline.
	sem chan struct{}
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

// Sweep runs f(0..n-1) and returns the results in index order. Sub-cases
// run over the Runner's sub-task semaphore, which has one slot per -j
// worker and is shared by every experiment, so at most -j sub-cases run at
// once across the whole sweep: intra-experiment parallelism cannot
// multiply the bound. Each f returns its own row and callers assemble
// tables in index order, which keeps output byte-identical at any worker
// count. Once ctx is done no further sub-case starts; running ones are
// waited for, then ctx's error is returned. A panicking sub-case is
// re-thrown on the calling goroutine after the others finish, where the
// runner's containment turns it into a failed experiment. A Config built
// by hand (tests, benchmarks) has no semaphore and sweeps inline.
func Sweep[T any](ctx context.Context, cfg Config, n int, f func(i int) T) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]T, n)
	if cfg.sem == nil {
		for i := range out {
			if ctx.Err() != nil {
				break
			}
			out[i] = f(i)
		}
		return out, ctx.Err()
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicked any
	)
dispatch:
	for i := range out {
		// Acquire before spawning so dispatch blocks while every slot is
		// busy; sub-cases never acquire further slots, so the semaphore
		// cannot deadlock.
		select {
		case cfg.sem <- struct{}{}:
		case <-ctx.Done():
			break dispatch
		}
		// select picks at random when both cases are ready: re-check so no
		// sub-case starts after cancellation.
		if ctx.Err() != nil {
			<-cfg.sem
			break
		}
		wg.Add(1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					mu.Lock()
					if panicked == nil {
						panicked = p
					}
					mu.Unlock()
				}
				<-cfg.sem
				wg.Done()
			}()
			out[i] = f(i)
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return out, ctx.Err()
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
