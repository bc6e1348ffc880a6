// Command routed runs the streaming admission engine as a long-lived
// service: a scenario's request stream is fed packet by packet — optionally
// from several concurrent producers — through internal/engine, which routes
// each packet the moment it arrives against a warm space-time sketch. Live
// accepted/rejected/latency counters go to stderr while the stream runs.
//
// On SIGINT (or SIGTERM) the engine drains gracefully: producers stop
// feeding, every queued and parked packet is still decided, detailed routing
// runs over the admitted set, and the metrics JSON is written with
// "partial": true before the process exits 130. A completed stream exits 0.
//
// Every delivered schedule is re-verified through netsim's schedule replay
// against the grid's buffer and link capacities (Model 1), and the violation
// count is part of the metrics (a correct run reports 0).
// After the metrics are written, a run with replay violations or outside
// Theorem 1's bounds exits 1, interrupted or not.
//
// Fault tolerance: -wal journals every decision to a checksummed write-ahead
// log and, when the log already exists, recovers from it first — replaying
// the logged prefix to rebuild engine state and resuming the stream at the
// first undecided packet, so a kill -9 mid-stream costs nothing but a
// restart. -faults/-fault-seed wire a deterministic chaos schedule (producer
// stalls and panics, queue-full storms, consumer pauses, mid-Admit
// cancellations, space-time resource outages) into the run. A schedule with
// a producer panic drops a seq, so it needs -gap-timeout: without it every
// later packet would wait for the dropped one forever, and routed exits 2
// before streaming.
//
// Usage examples:
//
//	go run ./cmd/routed -scenario uniform -stats 1s
//	go run ./cmd/routed -scenario zipf-hotspot -p reqs=5000 -producers 4 -json metrics.json
//	go run ./cmd/routed -scenario convoy -queue 64 -throttle 2ms
//	go run ./cmd/routed -scenario uniform -wal run.wal -declog run.declog
//	go run ./cmd/routed -scenario uniform -faults 'storm(seq=100,n=40,count=2);pause(seq=200,n=4,dur=1ms)'
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gridroute/internal/core"
	"gridroute/internal/engine"
	"gridroute/internal/fault"
	"gridroute/internal/grid"
	"gridroute/internal/netsim"
	"gridroute/internal/scenario"
	"gridroute/internal/spacetime"
)

// metrics is the service's JSON output: the engine's final counters plus the
// routing result and its replay verdict. Partial marks an interrupted stream
// (the numbers are still internally consistent — they cover exactly the
// packets decided before the drain finished).
type metrics struct {
	Scenario  string `json:"scenario"`
	GridDims  []int  `json:"grid_dims"`
	B         int    `json:"b"`
	C         int    `json:"c"`
	Requests  int    `json:"requests"`
	Producers int    `json:"producers"`
	Horizon   int64  `json:"horizon"`
	PMax      int    `json:"pmax"`
	K         int    `json:"k"`

	Submitted         uint64 `json:"submitted"`
	Accepted          uint64 `json:"accepted"`
	RejectedCost      uint64 `json:"rejected_cost"`
	RejectedNoRoute   uint64 `json:"rejected_no_route"`
	RejectedInvalid   uint64 `json:"rejected_invalid"`
	RejectedQueueFull uint64 `json:"rejected_queue_full"`
	// Recovered counts decisions replayed from the WAL instead of
	// re-decided.
	Recovered uint64 `json:"recovered"`
	// Retries counts producer re-submissions after queue-full rejections;
	// each retry is also one Submitted.
	Retries   uint64 `json:"backpressure_retries"`
	AvgWaitNs int64  `json:"avg_wait_ns"`

	Throughput       int     `json:"throughput"`
	ReachedLastTile  int     `json:"reached_last_tile"`
	MaxLoad          float64 `json:"max_load"`
	LoadBound        float64 `json:"load_bound"`
	PrimalValue      float64 `json:"primal_value"`
	ReplayViolations int     `json:"replay_violations"`
	// RouteAnomalies is detailed routing's count of events its analysis
	// rules out (detroute.Stats.Anomalies): overruns, packets unable to
	// move, horizon overflow. On a line it cannot occur.
	RouteAnomalies int `json:"route_anomalies"`

	Partial bool `json:"partial"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	// Restore default signal handling once the first signal has cancelled
	// the context, so a second ^C kills a stuck drain immediately.
	go func() {
		<-ctx.Done()
		stop()
	}()
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is main minus process-global state: it streams the scenario through
// the engine and returns the exit code (0 complete, 1 runtime error or
// failed check, 2 usage error, 130 interrupted-with-partial-metrics).
// Cancelling ctx triggers the graceful drain.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("routed", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sc := fs.String("scenario", "uniform", "workload scenario ID feeding the engine")
	params := scenario.ParamFlags{}
	fs.Var(params, "p", "scenario parameter override key=val (repeatable)")
	seed := fs.Int64("seed", 0, "scenario seed (0 = scenario default stream)")
	producers := fs.Int("producers", 1, "concurrent producer goroutines feeding the engine")
	queue := fs.Int("queue", engine.DefaultQueue, "admission queue bound (full queue = backpressure reject)")
	throttle := fs.Duration("throttle", 0, "pause between submissions per producer (paces the feed)")
	statsEvery := fs.Duration("stats", 0, "live counter interval on stderr (0 = off)")
	jsonPath := fs.String("json", "", "write the metrics JSON to this file instead of stdout")
	walPath := fs.String("wal", "", "write-ahead decision log path; an existing non-empty log is recovered first")
	walSync := fs.Int("wal-sync", 0, "WAL fsync batch size in decisions (0 = default)")
	declogPath := fs.String("declog", "", "write the final decision log (seq verdict cost tiles per line) to this file")
	faults := fs.String("faults", "", "deterministic fault schedule, e.g. 'stall(seq=10,n=4,dur=1ms);storm(seq=50,n=20,count=2)'")
	faultSeed := fs.Int64("fault-seed", 0, "generate a random deterministic fault schedule from this seed (exclusive with -faults)")
	gapTimeout := fs.Duration("gap-timeout", 0, "InOrder gap watchdog: skip a missing seq after this long (0 = never skip; a fault schedule with a panic needs it)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *producers < 1 {
		fmt.Fprintln(stderr, "routed: -producers must be ≥ 1")
		return 2
	}
	if *queue < 1 {
		fmt.Fprintln(stderr, "routed: -queue must be ≥ 1")
		return 2
	}
	if *walSync < 0 {
		fmt.Fprintln(stderr, "routed: -wal-sync must be ≥ 0")
		return 2
	}
	if *gapTimeout < 0 {
		fmt.Fprintln(stderr, "routed: -gap-timeout must be ≥ 0")
		return 2
	}
	if *seed != 0 {
		if int64(float64(*seed)) != *seed {
			fmt.Fprintf(stderr, "seed %d exceeds exact float64 range (±2^53); pick a smaller seed\n", *seed)
			return 2
		}
		if _, dup := params["seed"]; !dup {
			params["seed"] = float64(*seed)
		}
	}
	if *faults != "" && *faultSeed != 0 {
		fmt.Fprintln(stderr, "routed: -faults and -fault-seed are exclusive")
		return 2
	}

	g, reqs, err := scenario.Generate(*sc, params)
	if err != nil {
		// Unknown scenarios and bad parameters are usage errors; the
		// message already lists the valid choices.
		fmt.Fprintln(stderr, err)
		return 2
	}
	horizon := spacetime.SuggestHorizon(g, reqs, 3)
	pmax := core.PMaxDet(g)

	var inj *fault.Injector
	if *faults != "" || *faultSeed != 0 {
		sched := fault.Rand(*faultSeed, len(reqs), horizon, g.Dims)
		if *faults != "" {
			sched, err = fault.Parse(*faults)
			if err != nil {
				fmt.Fprintln(stderr, "routed:", err)
				return 2
			}
		}
		for _, ev := range sched.Events {
			if ev.Op == fault.Panic && *gapTimeout == 0 {
				// The panic drops its seq; in order, every later packet
				// would park behind it and the stream would never finish.
				fmt.Fprintf(stderr, "routed: fault schedule %s drops seq %d with a panic; set -gap-timeout (e.g. 50ms) so the stream can skip it\n", sched, ev.Seq)
				return 2
			}
		}
		inj = fault.NewInjector(sched)
		fmt.Fprintf(stderr, "routed: fault schedule: %s\n", sched)
	}

	opts := engine.Options{
		Horizon: horizon, PMax: pmax,
		Queue: *queue, ExpectPackets: len(reqs),
		// InOrder keeps the decision sequence (and therefore every metric
		// below) independent of producer interleaving.
		InOrder:         true,
		RecordDecisions: *declogPath != "",
		GapTimeout:      *gapTimeout,
		Injector:        inj,
		WALPath:         *walPath,
		WALSyncEvery:    *walSync,
	}

	// With a WAL configured, an existing non-empty log means a previous run
	// died mid-stream: recover from it instead of starting over. The replay
	// rebuilds engine state decision by decision; producers then resume at
	// the first sequence number the log does not cover.
	var eng *engine.Engine
	startSeq := 0
	if *walPath != "" {
		if fi, serr := os.Stat(*walPath); serr == nil && fi.Size() > 0 {
			var rec engine.Recovery
			eng, rec, err = engine.Recover(g, opts)
			if err != nil {
				fmt.Fprintln(stderr, "routed: recover:", err)
				return 1
			}
			startSeq = rec.NextSeq
			fmt.Fprintf(stderr, "routed: recovered %d decisions from %s (%d torn bytes dropped), resuming at seq %d\n",
				rec.Decisions, *walPath, rec.Truncated, startSeq)
		}
	}
	if eng == nil {
		eng, err = engine.New(g, opts)
		if err != nil {
			fmt.Fprintln(stderr, "routed:", err)
			return 1
		}
	}
	_, _, k := eng.Params()
	fmt.Fprintf(stderr, "routed: %s — %d requests, grid %v B=%d c=%d, horizon %d, pmax %d, k %d, queue %d, %d producer(s)\n",
		*sc, len(reqs), g.Dims, g.B, g.C, horizon, pmax, k, *queue, *producers)

	var retries atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now() //gridlint:allow operator-facing elapsed-time stat; decisions key on seq/arrival
	for p := 0; p < *producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// Producer-local jitter source: backoff spreading only — routing
			// decisions never see it.
			jit := rand.New(rand.NewSource(int64(p) + 1)) //gridlint:allow seeded per-producer backoff jitter; routing decisions never see it
			// Strided partition: producer p owns seqs p, p+P, p+2P, …,
			// submitted in increasing order, so the engine's in-order
			// consumer always has a live owner for the next seq.
			for i := p; i < len(reqs); i += *producers {
				if i < startSeq {
					continue // already decided by the recovered WAL prefix
				}
				if !produceOne(ctx, eng, inj, &reqs[i], jit, &retries, stderr) {
					return // interrupted or closed: stop feeding
				}
				if *throttle > 0 {
					select {
					case <-ctx.Done():
						return
					case <-time.After(*throttle): //gridlint:allow operator-requested submit throttle; pacing only, not a decision input
					}
				}
			}
		}(p)
	}

	statsDone := make(chan struct{})
	statsExited := make(chan struct{})
	if *statsEvery > 0 {
		go func() {
			defer close(statsExited)
			tick := time.NewTicker(*statsEvery)
			defer tick.Stop()
			for {
				select {
				case <-statsDone:
					return
				case <-tick.C:
					s := eng.Stats()
					extra := ""
					if s.Recovered > 0 {
						extra = fmt.Sprintf(" recovered=%d", s.Recovered)
					}
					//gridlint:allow progress-line elapsed time; display only
					fmt.Fprintf(stderr, "routed: t=%s submitted=%d accepted=%d rejected=%d retried=%d queue=%d avg-wait=%s%s\n",
						time.Since(start).Round(time.Millisecond), s.Submitted, s.Accepted, s.Rejected(), retries.Load(), s.QueueLen, s.AvgWait, extra)
				}
			}
		}()
	} else {
		close(statsExited)
	}

	wg.Wait()
	close(statsDone)
	// Wait the ticker out: a tick mid-print must not interleave with the
	// summary below (stderr may be a plain buffer under test).
	<-statsExited
	interrupted := ctx.Err() != nil

	// Graceful drain: decide everything queued or parked, then run detailed
	// routing. A fresh context bounds the drain so a wedged consumer cannot
	// hang the shutdown.
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := eng.Drain(drainCtx); err != nil {
		fmt.Fprintln(stderr, "routed: drain:", err)
		return 1
	}
	if err := eng.Err(); err != nil {
		// Degraded but not dead (gap skips, WAL write failures): surface it,
		// keep the run's output.
		fmt.Fprintln(stderr, "routed: degraded:", err)
	}
	res, err := eng.Finish()
	if err != nil {
		fmt.Fprintln(stderr, "routed:", err)
		return 1
	}

	if *declogPath != "" {
		if err := writeDecisionLog(*declogPath, res.Decisions); err != nil {
			fmt.Fprintln(stderr, "routed:", err)
			return 1
		}
	}

	// Re-verify the delivered schedules against the real link/buffer
	// capacities. A scenario numbers its requests 0..n-1 in arrival order,
	// so an admitted request's ID is its index in reqs.
	scheds := make([]*spacetime.Schedule, len(reqs))
	for j, s := range res.Schedules {
		scheds[res.Admitted[j].Req.ID] = s
	}
	violations := len(netsim.ReplaySchedules(g, reqs, scheds, netsim.Model1).Violation)

	s := res.Stats
	m := metrics{
		Scenario: *sc, GridDims: g.Dims, B: g.B, C: g.C,
		Requests: len(reqs), Producers: *producers,
		Horizon: res.Horizon, PMax: res.PMax, K: res.K,
		Submitted: s.Submitted, Accepted: s.Accepted,
		RejectedCost: s.RejectedCost, RejectedNoRoute: s.RejectedNoRoute,
		RejectedInvalid: s.RejectedInvalid, RejectedQueueFull: s.RejectedQueueFull,
		Recovered: s.Recovered, Retries: retries.Load(), AvgWaitNs: int64(s.AvgWait),
		Throughput: res.Throughput, ReachedLastTile: res.ReachedLastTile,
		MaxLoad: res.MaxLoad, LoadBound: res.LoadBound, PrimalValue: res.PrimalValue,
		ReplayViolations: violations,
		RouteAnomalies:   res.RouteStats.Anomalies,
		Partial:          interrupted,
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "routed:", err)
		return 1
	}
	out = append(out, '\n')
	if *jsonPath != "" {
		if err := os.WriteFile(*jsonPath, out, 0o644); err != nil {
			fmt.Fprintln(stderr, "routed:", err)
			return 1
		}
	} else {
		if _, err := stdout.Write(out); err != nil {
			fmt.Fprintln(stderr, "routed:", err)
			return 1
		}
	}
	//gridlint:allow final-summary elapsed time; display only
	fmt.Fprintf(stderr, "routed: done in %s — decided %d/%d, accepted %d, delivered %d, replay violations %d%s\n",
		time.Since(start).Round(time.Millisecond), s.Decided(), len(reqs), s.Accepted, res.Throughput, violations,
		map[bool]string{true: " (partial: interrupted)", false: ""}[interrupted])
	if err := checkRun(&m); err != nil {
		fmt.Fprintln(stderr, "routed: check failed:", err)
		return 1
	}
	if interrupted {
		return 130
	}
	return 0
}

// checkRun returns an error naming the first check the run's metrics fail:
// a delivered schedule that replays with violations, or a breach of
// Theorem 1 of Even–Medina (arXiv:1407.4498) — an edge load above
// log₂(1+3·pmax), or a primal value above twice the accepted count (with
// the same 1e-9 float slack as the end-to-end benchmark's check).
func checkRun(m *metrics) error {
	switch {
	case m.ReplayViolations > 0:
		return fmt.Errorf("replay_violations %d > 0", m.ReplayViolations)
	case m.MaxLoad > m.LoadBound:
		return fmt.Errorf("max_load %g > load_bound %g (Theorem 1)", m.MaxLoad, m.LoadBound)
	case m.PrimalValue > 2*float64(m.Accepted)+1e-9:
		return fmt.Errorf("primal_value %g > 2·accepted = %d (Theorem 1)", m.PrimalValue, 2*m.Accepted)
	}
	return nil
}

// produceOne submits one request, honoring the fault schedule and retrying
// queue-full rejections with bounded jittered exponential backoff. It
// reports false when the producer should stop (interrupt or engine closed).
// An injected producer panic is recovered here — the packet is dropped
// (creating an InOrder gap for the watchdog or drain flush to resolve) and
// the producer keeps going, like a respawned ingress worker.
func produceOne(ctx context.Context, eng *engine.Engine, inj *fault.Injector, r *grid.Request, jit *rand.Rand, retries *atomic.Uint64, stderr io.Writer) (alive bool) {
	seq := r.ID
	defer func() {
		if rec := recover(); rec != nil {
			fmt.Fprintf(stderr, "routed: producer recovered from panic: %v (seq %d dropped)\n", rec, seq)
			alive = true
		}
	}()
	if d := inj.StallBefore(seq); d > 0 {
		select {
		case <-ctx.Done():
			return false
		case <-time.After(d): //gridlint:allow injected producer stall; fault keyed on seq, sleep changes timing not verdicts
		}
	}
	if inj.PanicAt(seq) {
		panic("fault: injected producer panic")
	}
	pkt := engine.PacketOf(r)
	injCancel := inj.CancelFirst(seq)
	const backoffBase, backoffCap = 100 * time.Microsecond, 5 * time.Millisecond
	backoff := backoffBase
	for attempt := 0; ; attempt++ {
		actx := ctx
		if injCancel && attempt == 0 {
			// Injected mid-Admit cancellation: submit with an
			// already-cancelled context. If the packet made it into the
			// queue the consumer still decides it (the wait is abandoned,
			// the envelope reclaimed by the loop) — the decision log is
			// unchanged; only this producer's view of the verdict is lost.
			cctx, cancel := context.WithCancel(ctx)
			cancel()
			actx = cctx
		}
		dec, err := eng.Admit(actx, pkt)
		if err != nil {
			if injCancel && attempt == 0 && ctx.Err() == nil {
				return true // injected cancel; the loop owns the decision now
			}
			return false // interrupted or closed
		}
		if dec.Verdict != engine.RejectedQueueFull {
			return true
		}
		// Backpressure: the bounded queue bounced the packet. Retry after a
		// bounded, jittered, exponentially growing pause so P producers
		// don't re-slam the queue in lockstep.
		retries.Add(1)
		pause := backoff/2 + time.Duration(jit.Int63n(int64(backoff)))
		select {
		case <-ctx.Done():
			return false
		case <-time.After(pause): //gridlint:allow queue-full backoff pause; retry pacing only, admission order is seq-driven
		}
		if backoff < backoffCap {
			backoff *= 2
		}
	}
}

// writeDecisionLog renders the decision log one line per decision:
// "seq verdict cost tiles", with the cost in shortest round-trip form. Two
// runs with identical decisions produce byte-identical files — the format
// the crash-recovery CI gate diffs.
func writeDecisionLog(path string, decs []engine.Decision) error {
	buf := make([]byte, 0, 32*len(decs))
	for i := range decs {
		d := &decs[i]
		buf = strconv.AppendInt(buf, int64(d.Seq), 10)
		buf = append(buf, ' ')
		buf = append(buf, d.Verdict.String()...)
		buf = append(buf, ' ')
		buf = strconv.AppendFloat(buf, d.Cost, 'g', -1, 64)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(d.Tiles), 10)
		buf = append(buf, '\n')
	}
	return os.WriteFile(path, buf, 0o644)
}
