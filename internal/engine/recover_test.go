package engine_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gridroute/internal/engine"
	"gridroute/internal/engine/wal"
	"gridroute/internal/grid"
)

// feedRange admits reqs[lo:hi] sequentially.
func feedRange(t *testing.T, eng *engine.Engine, reqs []grid.Request, lo, hi int) {
	t.Helper()
	ctx := context.Background()
	for i := lo; i < hi; i++ {
		if _, err := eng.Admit(ctx, engine.PacketOf(&reqs[i])); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
}

// TestEngineWALRecoveryDeterminism is the crash-recovery gate: an engine that
// journals to a WAL, stops mid-stream, and is rebuilt with Recover must —
// after the rest of the stream is fed — produce exactly the decision log of
// the uninterrupted run, whether the log ends clean or with a torn tail.
func TestEngineWALRecoveryDeterminism(t *testing.T) {
	g, reqs, opts := workload(t, 48, 300, 128, 7)
	opts.InOrder = true
	opts.RecordDecisions = true

	_, ref := stream(t, g, reqs, opts)
	want := stripWait(ref.Decisions)

	t.Run(serialCase, func(t *testing.T) {
		wopts := opts
		wopts.WALPath = filepath.Join(t.TempDir(), "run.wal")
		wopts.WALSyncEvery = 1

		// First life: decide half the stream, then stop (a clean Drain —
		// the torn-tail variant below covers the mid-write crash shape).
		// The log holds records from both decide paths: a lone producer
		// finds the engine idle, so the first quarter is decided and
		// journaled on its goroutine; 4 InOrder producers almost always
		// have a packet in flight, so the loop decides the second quarter.
		const stopAt = 150
		eng, err := engine.New(g, wopts)
		if err != nil {
			t.Fatal(err)
		}
		feedRange(t, eng, reqs, 0, stopAt/2)
		chaosFeed(t, eng, nil, reqs[stopAt/2:stopAt], 4)
		if err := eng.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}

		// Second life: recover, resume at the first unlogged seq, finish.
		eng2, rec, err := engine.Recover(g, wopts)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Decisions != stopAt || rec.NextSeq != stopAt || rec.Truncated != 0 {
			t.Fatalf("clean recovery = %+v, want %d decisions, next seq %d, 0 torn bytes", rec, stopAt, stopAt)
		}
		feedRange(t, eng2, reqs, rec.NextSeq, len(reqs))
		res := finishEngine(t, eng2)
		if !reflect.DeepEqual(want, stripWait(res.Decisions)) {
			t.Fatal("merged decision log diverges from the uninterrupted run")
		}
		if res.Stats.Recovered != stopAt {
			t.Fatalf("Recovered = %d, want %d", res.Stats.Recovered, stopAt)
		}
		if res.Stats.Submitted != uint64(len(reqs)) || res.Stats.Decided() != uint64(len(reqs)) {
			t.Fatalf("merged accounting off: %+v for %d reqs", res.Stats, len(reqs))
		}
		if res.MaxLoad != ref.MaxLoad || res.PrimalValue != ref.PrimalValue {
			t.Fatalf("packer certificates diverge after recovery: (%v, %v) vs (%v, %v)",
				res.MaxLoad, res.PrimalValue, ref.MaxLoad, ref.PrimalValue)
		}

		// Third life: chop bytes off the log mid-frame — the kill -9
		// shape — and recover again. The torn record is dropped and
		// re-decided; the final log is still byte-identical.
		data, err := os.ReadFile(wopts.WALPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wopts.WALPath, data[:len(data)-37], 0o644); err != nil {
			t.Fatal(err)
		}
		eng3, rec3, err := engine.Recover(g, wopts)
		if err != nil {
			t.Fatal(err)
		}
		if rec3.Truncated == 0 {
			t.Fatal("torn tail not reported")
		}
		if rec3.NextSeq >= len(reqs) {
			t.Fatalf("torn log still claims the full stream (next seq %d)", rec3.NextSeq)
		}
		feedRange(t, eng3, reqs, rec3.NextSeq, len(reqs))
		res3 := finishEngine(t, eng3)
		if !reflect.DeepEqual(want, stripWait(res3.Decisions)) {
			t.Fatal("decision log diverges after torn-tail recovery")
		}
	})
}

// TestEngineRecoverParamMismatch: a log written under different engine
// parameters must be refused with the typed sentinel, not replayed into a
// mismatched topology.
func TestEngineRecoverParamMismatch(t *testing.T) {
	g, reqs, opts := workload(t, 32, 40, 32, 3)
	opts.InOrder = true
	opts.WALPath = filepath.Join(t.TempDir(), "run.wal")
	eng, err := engine.New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	feedRange(t, eng, reqs, 0, len(reqs))
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	bad := opts
	bad.Horizon++
	if _, _, err := engine.Recover(g, bad); !errors.Is(err, engine.ErrWALMismatch) {
		t.Fatalf("mismatched recover returned %v, want ErrWALMismatch", err)
	}
}

// TestEngineRecoverRejectsUnknownVerdict: a checksummed record whose verdict
// the engine does not define must fail recovery with an error naming its
// seq, not be replayed as some other verdict. Verdict 5 is what engines with
// overload shedding journaled for a shed packet.
func TestEngineRecoverRejectsUnknownVerdict(t *testing.T) {
	g, reqs, opts := workload(t, 32, 10, 32, 3)
	opts.InOrder = true
	opts.WALPath = filepath.Join(t.TempDir(), "run.wal")
	eng, err := engine.New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	feedRange(t, eng, reqs, 0, len(reqs))
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	w, err := wal.Resume(opts.WALPath, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&wal.Record{Seq: 10, Verdict: 5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := engine.Recover(g, opts); err == nil || !strings.Contains(err.Error(), "seq 10") {
		t.Fatalf("recover over an unknown verdict returned %v, want an error naming seq 10", err)
	}
}
