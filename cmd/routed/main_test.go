package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func decodeMetrics(t *testing.T, out []byte) metrics {
	t.Helper()
	var m metrics
	if err := json.Unmarshal(out, &m); err != nil {
		t.Fatalf("metrics JSON invalid: %v\n%s", err, out)
	}
	return m
}

func TestRunCompleteStream(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{
		"-scenario", "uniform", "-p", "n=32", "-p", "reqs=80", "-p", "maxt=64",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	m := decodeMetrics(t, out.Bytes())
	if m.Partial {
		t.Fatal("complete stream marked partial")
	}
	if m.Requests != 80 || m.Accepted == 0 || m.Throughput == 0 {
		t.Fatalf("implausible metrics: %+v", m)
	}
	if m.Accepted+m.RejectedCost+m.RejectedNoRoute+m.RejectedInvalid != uint64(m.Requests) {
		t.Fatalf("decided packets don't cover the stream: %+v", m)
	}
	if m.ReplayViolations != 0 {
		t.Fatalf("replay violations on a correct run: %+v", m)
	}
}

// TestRunProducersDeterministic checks the InOrder engine makes the decision
// log independent of producer parallelism, also when 8 producers overrun a
// 2-slot queue and retry the packets it bounces: every run must write the
// single-producer log byte for byte.
func TestRunProducersDeterministic(t *testing.T) {
	dir := t.TempDir()
	var want []byte
	for i, extra := range [][]string{
		{"-producers", "1"},
		{"-producers", "4"},
		{"-producers", "8", "-queue", "2"},
	} {
		declog := filepath.Join(dir, fmt.Sprintf("run%d.declog", i))
		args := append([]string{
			"-scenario", "zipf-hotspot", "-p", "n=32", "-p", "reqs=400", "-p", "maxt=128",
			"-declog", declog,
		}, extra...)
		var out, errb bytes.Buffer
		if code := run(context.Background(), args, &out, &errb); code != 0 {
			t.Fatalf("%v: exit %d, stderr:\n%s", extra, code, errb.String())
		}
		got, err := os.ReadFile(declog)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%v: decision log differs from the single-producer run", extra)
		}
		t.Logf("%v: %d queue-full retries", extra, decodeMetrics(t, out.Bytes()).Retries)
	}
}

// TestRunInterruptedMidStream cancels the feed context mid-stream (the
// SIGINT path) and checks the graceful drain: exit 130 plus a valid partial
// metrics document whose counters are internally consistent.
func TestRunInterruptedMidStream(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	var out, errb bytes.Buffer
	// The throttle paces the feed so the cancel reliably lands mid-stream.
	code := run(ctx, []string{
		"-scenario", "uniform", "-p", "n=32", "-p", "reqs=500", "-p", "maxt=256",
		"-throttle", "5ms", "-stats", "50ms",
	}, &out, &errb)
	if code != 130 {
		t.Fatalf("exit %d, want 130; stderr:\n%s", code, errb.String())
	}
	m := decodeMetrics(t, out.Bytes())
	if !m.Partial {
		t.Fatal("interrupted stream not marked partial")
	}
	decided := m.Accepted + m.RejectedCost + m.RejectedNoRoute + m.RejectedInvalid
	if decided == 0 || decided >= uint64(m.Requests) {
		t.Fatalf("interrupt did not land mid-stream: decided %d of %d", decided, m.Requests)
	}
	if m.ReplayViolations != 0 {
		t.Fatalf("partial run has replay violations: %+v", m)
	}
	if !strings.Contains(errb.String(), "partial: interrupted") {
		t.Fatalf("summary line missing interrupt note:\n%s", errb.String())
	}
}

// TestRunWALRecoveryMidStream interrupts a journaled run mid-stream, then
// restarts it against the same WAL: the second run must recover the logged
// prefix, resume at the first undecided packet, and leave a decision log
// byte-identical to an uninterrupted reference run.
func TestRunWALRecoveryMidStream(t *testing.T) {
	dir := t.TempDir()
	refLog := filepath.Join(dir, "ref.declog")
	wal := filepath.Join(dir, "run.wal")
	mergedLog := filepath.Join(dir, "merged.declog")
	scenarioArgs := []string{"-scenario", "uniform", "-p", "n=32", "-p", "reqs=400", "-p", "maxt=256"}

	var out, errb bytes.Buffer
	if code := run(context.Background(), append(scenarioArgs, "-declog", refLog), &out, &errb); code != 0 {
		t.Fatalf("reference run: exit %d, stderr:\n%s", code, errb.String())
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	out.Reset()
	errb.Reset()
	// -wal-sync 1 makes the interrupted prefix fully durable; the CI chaos
	// job covers the batched-fsync torn-tail shape with a real kill -9.
	code := run(ctx, append(scenarioArgs, "-wal", wal, "-wal-sync", "1", "-throttle", "2ms"), &out, &errb)
	if code != 130 {
		t.Fatalf("interrupted run: exit %d, want 130; stderr:\n%s", code, errb.String())
	}

	out.Reset()
	errb.Reset()
	if code := run(context.Background(), append(scenarioArgs, "-wal", wal, "-declog", mergedLog), &out, &errb); code != 0 {
		t.Fatalf("recovery run: exit %d, stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "recovered ") {
		t.Fatalf("recovery run did not report a recovery:\n%s", errb.String())
	}
	m := decodeMetrics(t, out.Bytes())
	if m.Recovered == 0 || m.Recovered >= uint64(m.Requests) {
		t.Fatalf("recovery did not land mid-stream: recovered %d of %d", m.Recovered, m.Requests)
	}
	ref, err := os.ReadFile(refLog)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := os.ReadFile(mergedLog)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, merged) {
		t.Fatal("merged decision log diverges from the uninterrupted reference")
	}
}

// TestRunFaultSchedule smokes the chaos flags: a storm/pause schedule must
// leave the stream fully decided with the same admissions as a clean run.
func TestRunFaultSchedule(t *testing.T) {
	scenarioArgs := []string{"-scenario", "uniform", "-p", "n=32", "-p", "reqs=120", "-p", "maxt=64"}
	var out, errb bytes.Buffer
	if code := run(context.Background(), scenarioArgs, &out, &errb); code != 0 {
		t.Fatalf("clean run: exit %d, stderr:\n%s", code, errb.String())
	}
	clean := decodeMetrics(t, out.Bytes())

	out.Reset()
	errb.Reset()
	code := run(context.Background(), append(scenarioArgs,
		"-producers", "4", "-queue", "16",
		"-faults", "storm(seq=20,n=30,count=2);pause(seq=60,n=3,dur=200us);stall(seq=5,n=2,dur=300us)",
	), &out, &errb)
	if code != 0 {
		t.Fatalf("chaos run: exit %d, stderr:\n%s", code, errb.String())
	}
	m := decodeMetrics(t, out.Bytes())
	if m.RejectedQueueFull == 0 {
		t.Fatal("storm injected no queue-full bounces")
	}
	if m.Accepted != clean.Accepted || m.Throughput != clean.Throughput || m.PrimalValue != clean.PrimalValue {
		t.Fatalf("chaos changed decisions:\nclean: %+v\nchaos: %+v", clean, m)
	}
	if m.Accepted+m.RejectedCost+m.RejectedNoRoute+m.RejectedInvalid != uint64(m.Requests) {
		t.Fatalf("stream not fully decided: %+v", m)
	}
}

// TestRunGeneratedFaultSchedule runs README's generated-schedule example: its
// producer panic drops one seq, the gap watchdog skips it, and every other
// seq is decided.
func TestRunGeneratedFaultSchedule(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"-scenario", "uniform", "-fault-seed", "7", "-gap-timeout", "50ms"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	m := decodeMetrics(t, out.Bytes())
	if decided := m.Accepted + m.RejectedCost + m.RejectedNoRoute + m.RejectedInvalid; decided != uint64(m.Requests-1) {
		t.Fatalf("decided %d of %d, want all but the dropped seq; stderr:\n%s", decided, m.Requests, errb.String())
	}
	if m.ReplayViolations != 0 {
		t.Fatalf("replay violations: %+v", m)
	}
	if !strings.Contains(errb.String(), "dropped") {
		t.Fatalf("no seq was dropped; stderr:\n%s", errb.String())
	}
}

func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "no-such-scenario"},
		{"-p", "notakeyval"},
		{"-producers", "0"},
		{"-queue", "0"},
		{"-queue", "-5"},
		{"-wal-sync", "-1"},
		{"-faults", "storm(seq=1)", "-fault-seed", "7"},
		{"-faults", "bogus(x=1)"},
		// A panic drops its seq; without -gap-timeout the in-order stream
		// would wait for it forever.
		{"-fault-seed", "7"},
		{"-faults", "panic(seq=5)"},
	} {
		var out, errb bytes.Buffer
		if code := run(context.Background(), args, &out, &errb); code != 2 {
			t.Fatalf("args %v: exit %d, want 2", args, code)
		}
	}
}

// TestCheckRun: each failed check exits the run with an error naming it;
// values on a bound pass.
func TestCheckRun(t *testing.T) {
	ok := metrics{Accepted: 10, MaxLoad: 2, LoadBound: 3, PrimalValue: 12}
	cases := []struct {
		name string
		edit func(*metrics)
		want string // substring of the error; "" for no error
	}{
		{"clean", func(*metrics) {}, ""},
		{"on the bounds", func(m *metrics) { m.MaxLoad, m.PrimalValue = 3, 20 }, ""},
		{"replay violation", func(m *metrics) { m.ReplayViolations = 1 }, "replay_violations"},
		{"load over bound", func(m *metrics) { m.MaxLoad = 3.5 }, "max_load"},
		{"primal over twice accepted", func(m *metrics) { m.PrimalValue = 20.5 }, "primal_value"},
		{"nothing accepted", func(m *metrics) { m.Accepted, m.PrimalValue = 0, 0.5 }, "primal_value"},
	}
	for _, c := range cases {
		m := ok
		c.edit(&m)
		err := checkRun(&m)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
	}
}
