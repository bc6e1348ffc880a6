package engine_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gridroute/internal/core"
	"gridroute/internal/detroute"
	"gridroute/internal/engine"
	"gridroute/internal/fault"
	"gridroute/internal/grid"
	"gridroute/internal/ipp"
	"gridroute/internal/scenario"
	"gridroute/internal/sketch"
	"gridroute/internal/spacetime"
	"gridroute/internal/tiling"
)

// workload builds a line instance with a uniform request stream and the
// batch-derived engine parameters.
func workload(t *testing.T, n, reqCount int, T int64, seed int64) (*grid.Grid, []grid.Request, engine.Options) {
	t.Helper()
	g := grid.Line(n, 3, 3)
	rng := rand.New(rand.NewSource(seed))
	reqs := scenario.Uniform(g, reqCount, T, rng)
	horizon := spacetime.SuggestHorizon(g, reqs, 3)
	pmax := core.PMaxDet(g)
	return g, reqs, engine.Options{Horizon: horizon, PMax: pmax, Queue: len(reqs) + 1}
}

// stream pushes the requests through the engine sequentially and returns the
// per-request admit pattern and the finished result.
func stream(t *testing.T, g *grid.Grid, reqs []grid.Request, opts engine.Options) ([]bool, *engine.Result) {
	t.Helper()
	eng, err := engine.New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	admitted := make([]bool, len(reqs))
	for i := range reqs {
		dec, err := eng.Admit(ctx, engine.PacketOf(&reqs[i]))
		if err != nil {
			t.Fatalf("Admit %d: %v", i, err)
		}
		if dec.Seq != reqs[i].ID {
			t.Fatalf("decision seq %d for packet %d", dec.Seq, reqs[i].ID)
		}
		admitted[i] = dec.Admitted()
	}
	if err := eng.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return admitted, res
}

// TestEngineMatchesInlineBatch replays the pre-engine batch admission loop
// with raw sketch/ipp primitives and checks that both engine entries, the
// batch Run and a one-producer stream through Admit, make bit-identical
// decisions and certificates on the same workload and count the same
// verdicts. The second workload holds an out-of-order arrival and an
// infeasible request: both entries reject each as RejectedInvalid, and the
// reference loop skips them, as the engine's validity gate keeps them off
// the packer.
func TestEngineMatchesInlineBatch(t *testing.T) {
	g, reqs, opts := workload(t, 48, 160, 96, 1)
	t.Run("uniform", func(t *testing.T) { checkInlineBatch(t, g, reqs, opts) })

	bad := slices.Clone(reqs)
	i := slices.IndexFunc(bad[1:], func(r grid.Request) bool { return r.Arrival > 0 })
	bad[i+1].Arrival = -1 // behind its predecessor's arrival
	bad[100].Deadline = bad[100].Arrival
	if bad[100].Feasible(g) {
		t.Fatal("request 100 still feasible with its deadline at its arrival")
	}
	t.Run("invalid", func(t *testing.T) { checkInlineBatch(t, g, bad, opts) })
}

func checkInlineBatch(t *testing.T, g *grid.Grid, reqs []grid.Request, opts engine.Options) {
	// Inline batch loop, as core.RunDeterministic wrote it before the
	// engine, behind the engine's validity gate.
	st := spacetime.New(g, opts.Horizon)
	d := g.D()
	k := ipp.K(opts.PMax)
	side := make([]int, d+1)
	phase := make([]int, d+1)
	for i := range side {
		side[i] = k
	}
	tl := tiling.New(st.Box, side, phase)
	sk := sketch.New(st, tl, sketch.Downscaled)
	pk := ipp.NewDense(2*opts.PMax+1, sk.Cap, sk.Universe())
	sess := sk.NewSession()
	var route sketch.Route
	wantAdmit := make([]bool, len(reqs))
	watermark, invalid := int64(math.MinInt64), uint64(0)
	for i := range reqs {
		r := &reqs[i]
		if r.Arrival < watermark || !r.Feasible(g) {
			invalid++
			continue
		}
		watermark = r.Arrival
		src := st.SourcePoint(r)
		wLo, wHi := st.DestRay(r)
		if !sess.LightestRouteInto(pk, src, r.Dst, wLo, wHi, opts.PMax, &route) {
			pk.Offer(nil, 0)
			continue
		}
		wantAdmit[i] = pk.Offer(route.Edges, route.Cost)
	}

	streamAdmit, streamed := stream(t, g, reqs, opts)
	batch, err := engine.Run(g, reqs, opts.Horizon, opts.PMax, 0)
	if err != nil {
		t.Fatal(err)
	}
	batchAdmit := make([]bool, len(reqs))
	for _, a := range batch.Admitted {
		if a.Req.ID < 0 || a.Req.ID >= len(reqs) {
			t.Fatalf("Run admitted Seq %d, want a request index below %d", a.Req.ID, len(reqs))
		}
		batchAdmit[a.Req.ID] = true
	}
	for _, c := range []struct {
		entry string
		admit []bool
		res   *engine.Result
	}{{"stream", streamAdmit, streamed}, {"Run", batchAdmit, batch}} {
		if !reflect.DeepEqual(wantAdmit, c.admit) {
			t.Fatalf("%s: admit pattern diverges from the inline batch loop", c.entry)
		}
		if c.res.MaxLoad != pk.MaxLoad() || c.res.PrimalValue != pk.PrimalValue() {
			t.Fatalf("%s: packer certificates diverge: engine (%v, %v) vs batch (%v, %v)",
				c.entry, c.res.MaxLoad, c.res.PrimalValue, pk.MaxLoad(), pk.PrimalValue())
		}
		s := c.res.Stats
		if int(s.Accepted) != len(c.res.Admitted) || s.Submitted != uint64(len(reqs)) || s.Decided() != s.Submitted || s.RejectedInvalid != invalid {
			t.Fatalf("%s: stats inconsistent: %+v vs %d admitted / %d reqs / %d invalid", c.entry, s, len(c.res.Admitted), len(reqs), invalid)
		}
	}
	want, got := streamed.Stats, batch.Stats
	if got.Accepted != want.Accepted || got.RejectedCost != want.RejectedCost || got.RejectedNoRoute != want.RejectedNoRoute ||
		got.RejectedInvalid != want.RejectedInvalid || got.RejectedQueueFull != 0 || got.AvgWait != 0 {
		t.Fatalf("Run's stats %+v, want the stream's verdict counts %+v and no wait", got, want)
	}
}

// stripWait zeroes the only non-deterministic Decision field.
func stripWait(ds []engine.Decision) []engine.Decision {
	out := make([]engine.Decision, len(ds))
	for i, d := range ds {
		d.Wait = 0
		out[i] = d
	}
	return out
}

// TestEngineDecisionDeterminismConcurrent is the -race gate of the streaming
// engine: N producer goroutines submit an interleaved partition of a seeded
// arrival order into an InOrder engine, and the decision log must be
// identical to the single-producer run — packet by packet, verdict by
// verdict, cost by cost. It runs at GOMAXPROCS ≥ 2 so that producers race
// the consumer loop for the inline path: a later packet can park between an
// inline Admit's in-flight check and its decide, and only that Admit's
// drain of the parked run decides it. The stream case (perfbench's traffic
// shape, many rounds) opens that window often; a lost parked run stalls
// every producer, and the watchdog fails the round instead of hanging.
func TestEngineDecisionDeterminismConcurrent(t *testing.T) {
	atLeastTwoProcs(t)
	g, reqs, opts := workload(t, 48, 200, 96, 7)
	t.Run("line", func(t *testing.T) { checkConcurrentDeterminism(t, g, reqs, opts, 3) })
	rounds := 20
	if raceEnabled {
		// The race detector slows each decision about 25-fold. Half the
		// rounds keep CI's ten-run race gate near two minutes; an engine
		// that loses a parked run stalls within the first few rounds.
		rounds = 10
	}
	sg, sreqs, sopts := streamWorkload(t, 20000)
	t.Run("stream", func(t *testing.T) { checkConcurrentDeterminism(t, sg, sreqs, sopts, rounds) })
}

// atLeastTwoProcs raises GOMAXPROCS to 2 for the test if it is lower.
func atLeastTwoProcs(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// streamWorkload is perfbench's stream traffic at a given packet count:
// uniform sources and destinations on a 16×16 grid with B = c = 3, four
// packets per time step, about 70% accepted.
func streamWorkload(t *testing.T, n int) (*grid.Grid, []grid.Request, engine.Options) {
	t.Helper()
	g, reqs, err := scenario.Generate("uniform", map[string]float64{
		"d": 2, "n": 16, "reqs": float64(n), "maxt": float64(n / 4), "seed": 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, reqs, engine.Options{
		Horizon: spacetime.SuggestHorizon(g, reqs, 3), PMax: core.PMaxDet(g), ExpectPackets: n,
	}
}

// checkConcurrentDeterminism runs rounds of 8 strided producers into an
// InOrder engine and compares each round's decision log and result with a
// single-producer run.
func checkConcurrentDeterminism(t *testing.T, g *grid.Grid, reqs []grid.Request, opts engine.Options, rounds int) {
	opts.InOrder = true
	opts.RecordDecisions = true

	_, seqRes := stream(t, g, reqs, opts)
	want := stripWait(seqRes.Decisions)
	if len(want) != len(reqs) {
		t.Fatalf("baseline recorded %d decisions for %d packets", len(want), len(reqs))
	}

	const producers = 8
	for round := 0; round < rounds; round++ {
		eng, err := engine.New(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				// Strided partition: each producer owns seqs p, p+P, p+2P, …
				// and submits them in increasing order, so the minimal
				// undecided seq is always either queued or owned by an
				// unblocked producer — no deadlock against InOrder parking.
				for i := p; i < len(reqs); i += producers {
					if _, err := eng.Admit(ctx, engine.PacketOf(&reqs[i])); err != nil {
						t.Errorf("producer %d admit %d: %v", p, i, err)
						return
					}
				}
			}(p)
		}
		if !awaitProducers(eng, &wg, 10*time.Second) {
			// The stuck producers stay blocked; draining would release them
			// into a finished test.
			t.Fatalf("round %d stuck: no decision for 10s with %d of %d packets decided (a parked packet was never decided)",
				round, eng.Stats().Decided(), len(reqs))
		}
		if err := eng.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, stripWait(res.Decisions)) {
			t.Fatalf("round %d: concurrent decision log diverges from sequential baseline", round)
		}
		if res.Throughput != seqRes.Throughput || res.MaxLoad != seqRes.MaxLoad {
			t.Fatalf("round %d: result diverges (throughput %d vs %d)", round, res.Throughput, seqRes.Throughput)
		}
	}
}

// awaitProducers waits for wg while the engine keeps deciding packets, and
// reports false once no decision has landed for stall.
func awaitProducers(eng *engine.Engine, wg *sync.WaitGroup, stall time.Duration) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	tick := time.NewTicker(stall / 20)
	defer tick.Stop()
	last, since := eng.Stats().Decided(), time.Now()
	for {
		select {
		case <-done:
			return true
		case <-tick.C:
			if n := eng.Stats().Decided(); n != last {
				last, since = n, time.Now()
			} else if time.Since(since) >= stall {
				return false
			}
		}
	}
}

// reuseRun is one InOrder run with the WAL on, from producers strided
// producers that admit under ctx. With reuse each producer submits every
// packet through one Src and one Dst slice of its own, which it scribbles
// over after every Admit; without, every packet gets fresh slices. It
// returns the decision log (Wait stripped), the coordinates of every
// admitted request in admission order, and the WAL bytes.
func reuseRun(t *testing.T, ctx context.Context, g *grid.Grid, reqs []grid.Request, opts engine.Options, producers int, reuse bool) ([]engine.Decision, []int, []byte) {
	t.Helper()
	opts.InOrder = true
	opts.RecordDecisions = true
	opts.WALPath = filepath.Join(t.TempDir(), "engine.wal")
	eng, err := engine.New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			src, dst := make(grid.Vec, g.D()), make(grid.Vec, g.D())
			for i := p; i < len(reqs); i += producers {
				pkt := engine.PacketOf(&reqs[i])
				if reuse {
					copy(src, reqs[i].Src)
					copy(dst, reqs[i].Dst)
					pkt.Src, pkt.Dst = src, dst
				} else {
					pkt.Src = append(grid.Vec(nil), reqs[i].Src...)
					pkt.Dst = append(grid.Vec(nil), reqs[i].Dst...)
				}
				if _, err := eng.Admit(ctx, pkt); err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("producer %d admit %d: %v", p, i, err)
					return
				}
				if reuse {
					for j := range src {
						src[j], dst[j] = -1, -1
					}
				}
			}
		}(p)
	}
	wg.Wait()
	res := finishEngine(t, eng)
	var coords []int
	for _, a := range res.Admitted {
		coords = append(coords, a.Req.Src...)
		coords = append(coords, a.Req.Dst...)
	}
	log, err := os.ReadFile(opts.WALPath)
	if err != nil {
		t.Fatal(err)
	}
	return stripWait(res.Decisions), coords, log
}

// checkReuse compares rounds of reusing runs from producers producers with
// one fresh-slice run.
func checkReuse(t *testing.T, ctx context.Context, g *grid.Grid, reqs []grid.Request, opts engine.Options, producers, rounds int) {
	t.Helper()
	wantDec, wantCoords, wantLog := reuseRun(t, ctx, g, reqs, opts, 1, false)
	if len(wantDec) != len(reqs) || len(wantCoords) == 0 {
		t.Fatalf("fresh-slice run decided %d of %d packets and admitted %d coordinates", len(wantDec), len(reqs), len(wantCoords))
	}
	for round := 0; round < rounds; round++ {
		gotDec, gotCoords, gotLog := reuseRun(t, ctx, g, reqs, opts, producers, true)
		if !reflect.DeepEqual(wantDec, gotDec) {
			t.Fatalf("round %d: decision log differs when producers reuse their Src/Dst slices", round)
		}
		if !reflect.DeepEqual(wantCoords, gotCoords) {
			t.Fatalf("round %d: admitted requests' coordinates differ when producers reuse their Src/Dst slices", round)
		}
		if !bytes.Equal(wantLog, gotLog) {
			t.Fatalf("round %d: WAL bytes differ when producers reuse their Src/Dst slices", round)
		}
	}
}

// TestEnginePacketReuse pins the Packet contract: the engine reads Src and
// Dst only until Admit returns, so one producer may overwrite one pair of
// slices after every Admit, as BenchmarkEngineAdmit/Mixed does. The run
// must match a fresh-slice run's decision log, admitted coordinates and WAL
// bytes, on the inline path and on the queued one (an empty fault.Injector
// keeps every admit on the queue). In the abandoned case every Admit runs
// under a cancelled context, so it may return with its packet still queued
// and the producer scribbles over the slices before the loop decides it:
// there the loop must read the envelope's copy.
func TestEnginePacketReuse(t *testing.T) {
	g, reqs, opts := streamWorkload(t, 4000)
	ctx := context.Background()
	t.Run("inline", func(t *testing.T) { checkReuse(t, ctx, g, reqs, opts, 1, 1) })
	opts.Injector = fault.NewInjector(nil)
	t.Run("queued", func(t *testing.T) { checkReuse(t, ctx, g, reqs, opts, 1, 1) })
	dead, cancel := context.WithCancel(ctx)
	cancel()
	opts.Queue = len(reqs) + 1
	t.Run("abandoned", func(t *testing.T) { checkReuse(t, dead, g, reqs, opts, 1, 1) })
}

// TestEnginePacketReuseConcurrent is TestEnginePacketReuse with 4 InOrder
// producers, each reusing its own pair of slices: admits mix the inline and
// the queued path, and the race detector watches the engine read one
// producer's slices while the others write theirs.
func TestEnginePacketReuseConcurrent(t *testing.T) {
	atLeastTwoProcs(t)
	g, reqs, opts := streamWorkload(t, 4000)
	checkReuse(t, context.Background(), g, reqs, opts, 4, 3)
}

// TestEngineBackpressure checks that a full bounded queue rejects instead of
// blocking, and that every submission is accounted for exactly once. The
// queue holds one packet, and an injected pause holds the consumer on seq 0
// for 50 ms (an injector also keeps every packet off the inline path): the
// other producers start once seq 0 is submitted, so one of their packets
// fills the queue and later admits bounce.
func TestEngineBackpressure(t *testing.T) {
	g, reqs, opts := workload(t, 64, 1024, 256, 3)
	opts.Queue = 1
	sched, err := fault.Parse("pause(seq=0,n=1,dur=50ms)")
	if err != nil {
		t.Fatal(err)
	}
	opts.Injector = fault.NewInjector(sched)

	eng, err := engine.New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const producers = 8
	bounced := make([]uint64, producers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		if p == 1 {
			// Producer 0's first packet is seq 0.
			for eng.Stats().Submitted == 0 {
				runtime.Gosched()
			}
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < len(reqs); i += producers {
				dec, err := eng.Admit(ctx, engine.PacketOf(&reqs[i]))
				if err != nil {
					t.Errorf("admit: %v", err)
					return
				}
				if dec.Verdict == engine.RejectedQueueFull {
					bounced[p]++
				}
			}
		}(p)
	}
	wg.Wait()
	if err := eng.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, b := range bounced {
		total += b
	}
	s := res.Stats
	if s.RejectedQueueFull != total {
		t.Fatalf("engine counted %d queue-full, producers saw %d", s.RejectedQueueFull, total)
	}
	if total == 0 {
		t.Fatal("no admit bounced off the full queue")
	}
	if s.Submitted != uint64(len(reqs)) {
		t.Fatalf("submitted %d != %d", s.Submitted, len(reqs))
	}
	if s.Decided()+s.RejectedQueueFull != s.Submitted {
		t.Fatalf("accounting leak: decided %d + bounced %d != submitted %d", s.Decided(), s.RejectedQueueFull, s.Submitted)
	}
}

// TestEngineLifecycle pins the Drain/Finish contract.
func TestEngineLifecycle(t *testing.T) {
	g, reqs, opts := workload(t, 32, 16, 32, 5)
	eng, err := engine.New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Finish(); err != engine.ErrNotDrained {
		t.Fatalf("Finish before Drain: %v", err)
	}
	ctx := context.Background()
	for i := range reqs {
		if _, err := eng.Admit(ctx, engine.PacketOf(&reqs[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(ctx); err != nil {
		t.Fatal("Drain must be idempotent:", err)
	}
	if _, err := eng.Admit(ctx, engine.PacketOf(&reqs[0])); err != engine.ErrClosed {
		t.Fatalf("Admit after Drain: %v", err)
	}
	r1, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Finish()
	if err != nil || r1 != r2 {
		t.Fatal("Finish must be idempotent and cached")
	}
	if len(r1.Schedules) != len(r1.Admitted) || len(r1.Outcomes) != len(r1.Admitted) {
		t.Fatal("result slices not parallel to Admitted")
	}
}

// TestEngineDrainLeak races Drain against 8 producers mid-flight and checks
// the envelope ownership handoff never leaks: every Admit call returns (a
// decision, queue-full, or ErrClosed — never a hang), every submitted
// envelope is decided exactly once, and the engine still finishes cleanly.
func TestEngineDrainLeak(t *testing.T) {
	g, reqs, opts := workload(t, 48, 600, 128, 21)
	opts.Queue = 8
	eng, err := engine.New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const producers = 8
	var closed sync.WaitGroup
	var submitted, refused uint64
	var mu sync.Mutex
	for p := 0; p < producers; p++ {
		closed.Add(1)
		go func(p int) {
			defer closed.Done()
			var sub, ref uint64
			for i := p; i < len(reqs); i += producers {
				_, err := eng.Admit(ctx, engine.PacketOf(&reqs[i]))
				if err == engine.ErrClosed {
					ref++
					continue
				}
				if err != nil {
					t.Errorf("admit: %v", err)
					return
				}
				sub++
			}
			mu.Lock()
			submitted += sub
			refused += ref
			mu.Unlock()
		}(p)
	}
	// Drain while producers are still submitting.
	time.Sleep(2 * time.Millisecond)
	if err := eng.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	closed.Wait()
	if _, err := eng.Admit(ctx, engine.PacketOf(&reqs[0])); err != engine.ErrClosed {
		t.Fatalf("Admit after Drain: %v", err)
	}
	res, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Submitted != submitted {
		t.Fatalf("engine counted %d submissions, producers made %d", s.Submitted, submitted)
	}
	if s.Decided()+s.RejectedQueueFull != s.Submitted {
		t.Fatalf("envelope leak: decided %d + bounced %d != submitted %d",
			s.Decided(), s.RejectedQueueFull, s.Submitted)
	}
	if submitted+refused != uint64(len(reqs)) {
		t.Fatalf("producers lost calls: %d + %d != %d", submitted, refused, len(reqs))
	}
}

// TestEngineInvalidPackets checks that infeasible and out-of-order packets
// are rejected without perturbing the packer state: a valid stream with
// garbage interleaved decides the valid packets exactly as a clean stream.
func TestEngineInvalidPackets(t *testing.T) {
	g, reqs, opts := workload(t, 32, 64, 48, 9)
	wantAdmit, wantRes := stream(t, g, reqs, opts)

	eng, err := engine.New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	gotAdmit := make([]bool, len(reqs))
	for i := range reqs {
		if i%8 == 3 {
			// Out of bounds destination.
			bad := engine.Packet{Seq: 10_000 + i, Src: grid.Vec{0}, Dst: grid.Vec{999}, Arrival: reqs[i].Arrival, Deadline: grid.InfDeadline}
			if dec, err := eng.Admit(ctx, bad); err != nil || dec.Verdict != engine.RejectedInvalid {
				t.Fatalf("infeasible packet: %v %v", dec.Verdict, err)
			}
		}
		if i%8 == 5 && reqs[i].Arrival > 0 {
			// Arrival-order watermark violation.
			bad := engine.PacketOf(&reqs[i])
			bad.Seq = 20_000 + i
			bad.Arrival = -1
			if dec, err := eng.Admit(ctx, bad); err != nil || dec.Verdict != engine.RejectedInvalid {
				t.Fatalf("stale packet: %v %v", dec.Verdict, err)
			}
		}
		dec, err := eng.Admit(ctx, engine.PacketOf(&reqs[i]))
		if err != nil {
			t.Fatal(err)
		}
		gotAdmit[i] = dec.Admitted()
	}
	if err := eng.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantAdmit, gotAdmit) {
		t.Fatal("invalid packets perturbed admission decisions")
	}
	if res.MaxLoad != wantRes.MaxLoad || res.PrimalValue != wantRes.PrimalValue || res.Throughput != wantRes.Throughput {
		t.Fatal("invalid packets perturbed packer or routing state")
	}
	if res.Stats.RejectedInvalid == 0 {
		t.Fatal("no invalid rejections counted")
	}
}

// TestEngineRefusesTooManyDimensions: detailed routing groups packets by
// travel axis in a table of detroute.MaxAxes slots, so a grid with
// d+1 > MaxAxes must fail at construction — New and Recover alike — with an
// error naming the limit, instead of panicking in Finish. The largest
// supported grid routes end to end.
func TestEngineRefusesTooManyDimensions(t *testing.T) {
	cube := func(d int) *grid.Grid {
		dims := make([]int, d)
		for i := range dims {
			dims[i] = 2
		}
		return grid.New(dims, 3, 3)
	}
	top := cube(detroute.MaxAxes - 1)
	far := make(grid.Vec, top.D())
	for i := range far {
		far[i] = 1
	}
	reqs := []grid.Request{{Src: make(grid.Vec, top.D()), Dst: far, Deadline: grid.InfDeadline}}
	res, err := core.RunDeterministic(top, reqs, core.DetConfig{})
	if err != nil || res.Throughput != 1 {
		t.Fatalf("%d-D grid: err %v, want the one packet delivered", top.D(), err)
	}

	big := cube(detroute.MaxAxes)
	opts := engine.Options{Horizon: 16, PMax: core.PMaxDet(big)}
	if _, err := engine.New(big, opts); err == nil || !strings.Contains(err.Error(), "MaxAxes") {
		t.Fatalf("New on a %d-D grid: err %v, want one naming detroute.MaxAxes", big.D(), err)
	}
	opts.WALPath = filepath.Join(t.TempDir(), "engine.wal")
	if _, _, err := engine.Recover(big, opts); err == nil || !strings.Contains(err.Error(), "MaxAxes") {
		t.Fatalf("Recover on a %d-D grid: err %v, want one naming detroute.MaxAxes", big.D(), err)
	}
}

// TestEngineRejectsBadOptions: out-of-range sizing options must fail New and
// Recover with an error naming the option, not panic further into
// construction (a negative tile side reaches tiling.New otherwise).
func TestEngineRejectsBadOptions(t *testing.T) {
	g := grid.New([]int{4, 4}, 3, 3)
	pmax := core.PMaxDet(g)
	cases := []struct {
		field string
		opts  engine.Options
	}{
		{"Horizon", engine.Options{Horizon: 0, PMax: pmax}},
		{"Horizon", engine.Options{Horizon: -1, PMax: pmax}},
		{"PMax", engine.Options{Horizon: 16, PMax: 0}},
		{"PMax", engine.Options{Horizon: 16, PMax: -1}},
		{"TileSide", engine.Options{Horizon: 16, PMax: pmax, TileSide: -1}},
		{"GapTimeout", engine.Options{Horizon: 16, PMax: pmax, InOrder: true, GapTimeout: -time.Millisecond}},
	}
	for _, c := range cases {
		opts := c.opts
		if _, err := engine.New(g, opts); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Fatalf("New(%+v): err %v, want one naming Options.%s", opts, err, c.field)
		}
		opts.WALPath = filepath.Join(t.TempDir(), "engine.wal")
		if _, _, err := engine.Recover(g, opts); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Fatalf("Recover(%+v): err %v, want one naming Options.%s", opts, err, c.field)
		}
	}
}

// TestEngineQueueOrderAfterAbandonedWait: a non-InOrder engine decides in
// submission order even when waits are abandoned. Every other packet goes in
// with an already-cancelled context, so it is queued and its submitter walks
// away; the live packet after it must not be decided before it.
func TestEngineQueueOrderAfterAbandonedWait(t *testing.T) {
	g, reqs, opts := workload(t, 48, 400, 128, 17)
	opts.RecordDecisions = true
	eng, err := engine.New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	live := context.Background()
	dead, cancel := context.WithCancel(live)
	cancel()
	for i := range reqs {
		ctx := live
		if i%2 == 1 {
			ctx = dead
		}
		if _, err := eng.Admit(ctx, engine.PacketOf(&reqs[i])); err != nil && ctx == live {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	res := finishEngine(t, eng)
	if len(res.Decisions) != len(reqs) {
		t.Fatalf("decided %d packets, want %d", len(res.Decisions), len(reqs))
	}
	for i, d := range res.Decisions {
		if d.Seq != reqs[i].ID {
			t.Fatalf("decision %d is seq %d, want seq %d: a packet overtook an abandoned one", i, d.Seq, reqs[i].ID)
		}
	}
}
