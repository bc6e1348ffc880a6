package engine_test

import (
	"context"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gridroute/internal/core"
	"gridroute/internal/detroute"
	"gridroute/internal/engine"
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
// with raw sketch/ipp primitives and checks the streaming engine makes
// bit-identical decisions and certificates on the same workload.
func TestEngineMatchesInlineBatch(t *testing.T) {
	g, reqs, opts := workload(t, 48, 160, 96, 1)

	// Inline batch loop, as core.RunDeterministic wrote it before the engine.
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
	wantAdmit := make([]bool, len(reqs))
	for i := range reqs {
		r := &reqs[i]
		src := st.SourcePoint(r)
		wLo, wHi := st.DestRay(r)
		route := sk.LightestRoute(pk, src, r.Dst, wLo, wHi, opts.PMax)
		if route == nil {
			pk.Offer(nil, 0)
			continue
		}
		wantAdmit[i] = pk.Offer(route.Edges, route.Cost)
	}

	gotAdmit, res := stream(t, g, reqs, opts)
	if !reflect.DeepEqual(wantAdmit, gotAdmit) {
		t.Fatal("engine admit pattern diverges from the inline batch loop")
	}
	if res.MaxLoad != pk.MaxLoad() || res.PrimalValue != pk.PrimalValue() {
		t.Fatalf("packer certificates diverge: engine (%v, %v) vs batch (%v, %v)",
			res.MaxLoad, res.PrimalValue, pk.MaxLoad(), pk.PrimalValue())
	}
	if int(res.Stats.Accepted) != len(res.Admitted) || res.Stats.Submitted != uint64(len(reqs)) {
		t.Fatalf("stats inconsistent: %+v vs %d admitted / %d reqs", res.Stats, len(res.Admitted), len(reqs))
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
// verdict, cost by cost.
func TestEngineDecisionDeterminismConcurrent(t *testing.T) {
	g, reqs, opts := workload(t, 48, 200, 96, 7)
	opts.InOrder = true
	opts.RecordDecisions = true

	_, seqRes := stream(t, g, reqs, opts)
	want := stripWait(seqRes.Decisions)
	if len(want) != len(reqs) {
		t.Fatalf("baseline recorded %d decisions for %d packets", len(want), len(reqs))
	}

	const producers = 8
	for round := 0; round < 3; round++ {
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
		wg.Wait()
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

// TestEngineBackpressure checks that a full bounded queue rejects instead of
// blocking: with a single-slot queue and many producers racing a consumer
// that does real DP work per packet, some submissions must bounce, and every
// submission is accounted for exactly once.
func TestEngineBackpressure(t *testing.T) {
	g, reqs, opts := workload(t, 64, 1024, 256, 3)
	opts.Queue = 1

	eng, err := engine.New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const producers = 8
	bounced := make([]uint64, producers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
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
		t.Skip("queue never filled (consumer outpaced 8 producers); backpressure accounting not exercised")
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

// TestEngineWarmStartParity is the engine-level warm-start gate: the default
// engine (DP reuse on) must produce exactly the decision log — verdicts,
// costs, admitted set, certificates — of an engine with NoWarmStart,
// across a workload dense enough to hit the unchanged-version skip, the
// full rerun after a commit, and the window-change cache miss. Runs with
// -count=3 under -race in CI.
func TestEngineWarmStartParity(t *testing.T) {
	g, reqs, opts := workload(t, 48, 300, 64, 13)
	opts.RecordDecisions = true
	// Duplicate bursts: consecutive identical packets (fresh seqs) hit the
	// same window again, after a reject (skip) or an accept (rerun).
	burst := make([]grid.Request, 0, 2*len(reqs))
	nextID := 0
	for i := range reqs {
		n := 1 + i%3
		for j := 0; j < n; j++ {
			r := reqs[i]
			r.ID = nextID
			nextID++
			burst = append(burst, r)
		}
	}

	coldOpts := opts
	coldOpts.NoWarmStart = true
	_, coldRes := stream(t, g, burst, coldOpts)
	_, warmRes := stream(t, g, burst, opts)

	if !reflect.DeepEqual(stripWait(coldRes.Decisions), stripWait(warmRes.Decisions)) {
		t.Fatal("warm-start engine decision log diverges from cold engine")
	}
	if warmRes.MaxLoad != coldRes.MaxLoad || warmRes.PrimalValue != coldRes.PrimalValue ||
		warmRes.Throughput != coldRes.Throughput || len(warmRes.Admitted) != len(coldRes.Admitted) {
		t.Fatalf("warm-start result diverges: (%v,%v,%d,%d) vs (%v,%v,%d,%d)",
			warmRes.MaxLoad, warmRes.PrimalValue, warmRes.Throughput, len(warmRes.Admitted),
			coldRes.MaxLoad, coldRes.PrimalValue, coldRes.Throughput, len(coldRes.Admitted))
	}
	if len(warmRes.Admitted) == 0 {
		t.Fatal("no admissions: warm paths not exercised")
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
