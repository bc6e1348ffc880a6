package engine_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"gridroute/internal/engine"
	"gridroute/internal/fault"
	"gridroute/internal/grid"
)

// chaosFeed drives reqs through the engine with P strided producers that
// honor the producer-side fault hooks (stalls) and retry queue-full
// rejections until the packet lands — the harness the fault-determinism
// tests rely on: every seq is eventually decided exactly once, whatever the
// schedule bounced or delayed.
func chaosFeed(t *testing.T, eng *engine.Engine, inj *fault.Injector, reqs []grid.Request, producers int) {
	t.Helper()
	ctx := context.Background()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < len(reqs); i += producers {
				if d := inj.StallBefore(reqs[i].ID); d > 0 {
					time.Sleep(d)
				}
				pkt := engine.PacketOf(&reqs[i])
				for {
					dec, err := eng.Admit(ctx, pkt)
					if err != nil {
						t.Errorf("producer %d admit %d: %v", p, i, err)
						return
					}
					if dec.Verdict != engine.RejectedQueueFull {
						break
					}
					time.Sleep(50 * time.Microsecond)
				}
			}
		}(p)
	}
	wg.Wait()
}

// serialCase names the subtest that runs the consumer loop in the chaos,
// watchdog and recovery gates. The name records that no speculative workers
// run (there is no speculative pipeline any more); it is kept so the subtest
// IDs stay stable across runs of the suite.
const serialCase = "spec-workers-0"

func finishEngine(t *testing.T, eng *engine.Engine) *engine.Result {
	t.Helper()
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEngineFaultStormDeterminism is the chaos gate: a schedule of
// queue-full storms, producer stalls and consumer pauses — injected into a
// 4-producer run — must leave the decision log byte-identical to the
// undisturbed single-producer baseline. Faults shake timing; they must never
// shake decisions.
func TestEngineFaultStormDeterminism(t *testing.T) {
	g, reqs, opts := workload(t, 48, 200, 96, 7)
	opts.InOrder = true
	opts.RecordDecisions = true

	_, ref := stream(t, g, reqs, opts)
	want := stripWait(ref.Decisions)

	sched, err := fault.Parse("storm(seq=40,n=30,count=2);stall(seq=10,n=4,dur=300us);pause(seq=100,n=3,dur=200us)")
	if err != nil {
		t.Fatal(err)
	}
	t.Run(serialCase, func(t *testing.T) {
		opts.Injector = fault.NewInjector(sched)
		eng, err := engine.New(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		chaosFeed(t, eng, opts.Injector, reqs, 4)
		res := finishEngine(t, eng)
		if !reflect.DeepEqual(want, stripWait(res.Decisions)) {
			t.Fatal("decision log diverges under fault injection")
		}
		s := res.Stats
		if s.RejectedQueueFull == 0 {
			t.Fatal("storm injected no queue-full bounces")
		}
		// Every storm bounce was resubmitted, so Submitted exceeds the stream
		// length by exactly the bounce count.
		if s.Decided()+s.RejectedQueueFull != s.Submitted {
			t.Fatalf("accounting leak: decided %d + bounced %d != submitted %d",
				s.Decided(), s.RejectedQueueFull, s.Submitted)
		}
		if s.Decided() != uint64(len(reqs)) {
			t.Fatalf("decided %d packets, stream has %d", s.Decided(), len(reqs))
		}
	})
}

// TestEngineOutageDeterminism checks resource-outage masking: with central
// nodes of the line failed for the whole run, decisions (a) change versus
// the healthy baseline, (b) stay identical across producer counts — the
// mask depends only on packet arrival times.
func TestEngineOutageDeterminism(t *testing.T) {
	g, reqs, opts := workload(t, 48, 200, 96, 7)
	opts.InOrder = true
	opts.RecordDecisions = true

	_, healthy := stream(t, g, reqs, opts)

	sched, err := fault.Parse("outage(node=23,t=0-96);outage(node=24,t=0-96);outage(node=25,t=0-96)")
	if err != nil {
		t.Fatal(err)
	}
	var want []engine.Decision
	for _, producers := range []int{1, 8} {
		copts := opts
		copts.Injector = fault.NewInjector(sched)
		eng, err := engine.New(g, copts)
		if err != nil {
			t.Fatal(err)
		}
		chaosFeed(t, eng, copts.Injector, reqs, producers)
		res := finishEngine(t, eng)
		got := stripWait(res.Decisions)
		if want == nil {
			want = got
			if reflect.DeepEqual(stripWait(healthy.Decisions), got) {
				t.Fatal("outage schedule changed nothing; mask is not reaching the route query")
			}
			if res.Stats.Accepted >= healthy.Stats.Accepted {
				t.Fatalf("outage did not reduce admissions: %d with, %d without", res.Stats.Accepted, healthy.Stats.Accepted)
			}
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("masked decisions depend on the producer count (%d producers)", producers)
		}
	}
}

// TestEngineGapWatchdog pins satellite 1: with GapTimeout set, a missing
// sequence number stalls the InOrder consumer only for the timeout, then the
// gap is skipped, the parked packets are decided, and the typed GapError
// names the missing seq.
func TestEngineGapWatchdog(t *testing.T) {
	g, reqs, opts := workload(t, 32, 6, 32, 5)
	opts.InOrder = true
	opts.RecordDecisions = true
	opts.GapTimeout = 30 * time.Millisecond

	t.Run(serialCase, func(t *testing.T) {
		eng, err := engine.New(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for i := 0; i < 2; i++ {
			if _, err := eng.Admit(ctx, engine.PacketOf(&reqs[i])); err != nil {
				t.Fatalf("admit %d: %v", i, err)
			}
		}
		// Seq 2 never arrives; 3..5 park behind the gap until the watchdog
		// breaks it. Their Admit calls block for the decision, so they run
		// concurrently.
		start := time.Now()
		var wg sync.WaitGroup
		for i := 3; i < len(reqs); i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := eng.Admit(ctx, engine.PacketOf(&reqs[i])); err != nil {
					t.Errorf("admit %d: %v", i, err)
				}
			}(i)
		}
		wg.Wait()
		if waited := time.Since(start); waited < opts.GapTimeout {
			t.Fatalf("parked packets decided after %s, before the %s watchdog", waited, opts.GapTimeout)
		}
		res := finishEngine(t, eng)
		var gap *engine.GapError
		if err := eng.Err(); !errors.As(err, &gap) {
			t.Fatalf("Err() = %v, want a *GapError", err)
		}
		if gap.Missing != 2 || gap.SkippedTo != 3 {
			t.Fatalf("gap names seq %d (resumed %d), want 2 (resumed 3): %v", gap.Missing, gap.SkippedTo, gap)
		}
		if len(res.Decisions) != len(reqs)-1 {
			t.Fatalf("decided %d packets, want %d (all but the missing seq)", len(res.Decisions), len(reqs)-1)
		}
		for _, d := range res.Decisions {
			if d.Seq == 2 {
				t.Fatal("a decision exists for the never-submitted seq")
			}
		}
	})
}

// TestEngineAdmitCancelAbandon pins satellite 2: a submitter whose context
// dies mid-Admit walks away with ctx.Err(), while the consumer still decides
// the packet (it was already queued) and reclaims the pooled envelope — no
// decision is lost and nothing leaks.
func TestEngineAdmitCancelAbandon(t *testing.T) {
	g, reqs, opts := workload(t, 32, 40, 32, 5)
	opts.InOrder = true
	opts.RecordDecisions = true
	// Pin the consumer on seq 0 long enough for the cancel to land first.
	sched, err := fault.Parse("pause(seq=0,n=1,dur=80ms)")
	if err != nil {
		t.Fatal(err)
	}
	opts.Injector = fault.NewInjector(sched)
	eng, err := engine.New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := eng.Admit(cctx, engine.PacketOf(&reqs[0])); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Admit returned %v, want context.Canceled", err)
	}
	ctx := context.Background()
	for i := 1; i < len(reqs); i++ {
		if _, err := eng.Admit(ctx, engine.PacketOf(&reqs[i])); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	res := finishEngine(t, eng)
	if len(res.Decisions) != len(reqs) {
		t.Fatalf("decided %d packets, want %d — the abandoned packet must still be decided", len(res.Decisions), len(reqs))
	}
	if res.Decisions[0].Seq != 0 {
		t.Fatalf("first decision is seq %d, want the abandoned seq 0", res.Decisions[0].Seq)
	}
	s := res.Stats
	if s.Decided() != s.Submitted {
		t.Fatalf("abandoned packet unaccounted: decided %d != submitted %d", s.Decided(), s.Submitted)
	}
}

// TestEngineStatsSnapshotCoherence hammers Stats() while 8 producers feed
// the consumer loop, asserting the documented monotone-pair invariant holds
// for every snapshot — the contract that makes lock-free snapshot tearing
// benign.
func TestEngineStatsSnapshotCoherence(t *testing.T) {
	g, reqs, opts := workload(t, 48, 400, 128, 13)
	opts.InOrder = true
	opts.Queue = 16
	eng, err := engine.New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var hammer sync.WaitGroup
	hammer.Add(1)
	go func() {
		defer hammer.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := eng.Stats()
			if s.Decided()+s.RejectedQueueFull > s.Submitted {
				t.Errorf("snapshot tearing: decided %d + queue-full %d > submitted %d",
					s.Decided(), s.RejectedQueueFull, s.Submitted)
				return
			}
		}
	}()
	chaosFeed(t, eng, nil, reqs, 8)
	res := finishEngine(t, eng)
	close(stop)
	hammer.Wait()
	s := res.Stats
	if s.Decided()+s.RejectedQueueFull != s.Submitted {
		t.Fatalf("final snapshot unbalanced: %+v", s)
	}
}
