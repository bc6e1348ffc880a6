package fault

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseStringRoundTrip(t *testing.T) {
	spec := "stall(seq=120,n=8,dur=2ms);panic(seq=300);cancel(seq=500,n=5);" +
		"storm(seq=200,n=50,count=3);pause(seq=400,n=10,dur=1ms);" +
		"outage(node=3/4,axis=0,t=10-40);outage(node=5,t=20-30)"
	s, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(s.Events) != 7 {
		t.Fatalf("got %d events, want 7", len(s.Events))
	}
	if got := s.String(); got != spec {
		t.Fatalf("String() = %q, want %q", got, spec)
	}
	s2, err := Parse(s.String())
	if err != nil {
		t.Fatalf("re-Parse: %v", err)
	}
	if !reflect.DeepEqual(s, s2) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", s, s2)
	}
}

func TestParseDefaults(t *testing.T) {
	s, err := Parse("storm(seq=7)")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ev := s.Events[0]
	if ev.N != 1 || ev.Count != 1 || ev.Axis != -1 {
		t.Fatalf("defaults not applied: %+v", ev)
	}
	if empty, err := Parse("  "); err != nil || len(empty.Events) != 0 {
		t.Fatalf("empty spec: %v %+v", err, empty)
	}
}

func TestParseRejects(t *testing.T) {
	for _, bad := range []string{
		"nope(seq=1)",
		"storm(seq=-1)",
		"storm(n=3)",       // missing seq
		"storm(seq=1,n=0)", // n < 1
		"stall(seq=1)",     // missing dur
		"stall(seq=1,dur=-1s)",
		"outage(t=1-2)",           // missing node
		"outage(node=1)",          // missing t
		"outage(node=1,t=5-5)",    // empty interval
		"outage(node=1,t=oops-2)", // bad int
		"storm(seq=1,count=x)",
		"storm seq=1",
		"storm(seq)",
		"storm(seq=1,zap=2)",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestStormBounceDeterministicCounts(t *testing.T) {
	s, err := Parse("storm(seq=10,n=3,count=2);storm(seq=11,count=1)")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(s)
	// seq 10: 2 bounces, seq 11: 2+1=3 bounces (overlap adds), seq 12: 2, seq 9: 0.
	want := map[int]int{9: 0, 10: 2, 11: 3, 12: 2, 13: 0}
	for seq, n := range want {
		got := 0
		for in.StormBounce(seq) {
			got++
			if got > 10 {
				t.Fatalf("seq %d: storm never clears", seq)
			}
		}
		if got != n {
			t.Errorf("seq %d: %d bounces, want %d", seq, got, n)
		}
		if in.StormBounce(seq) {
			t.Errorf("seq %d: bounced after clearing", seq)
		}
	}
}

func TestOneShotTriggers(t *testing.T) {
	s, err := Parse("panic(seq=5);cancel(seq=6,n=2)")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(s)
	if !in.PanicAt(5) || in.PanicAt(5) {
		t.Fatal("PanicAt should fire exactly once per seq")
	}
	if in.PanicAt(4) {
		t.Fatal("PanicAt fired outside range")
	}
	if !in.CancelFirst(6) || in.CancelFirst(6) || !in.CancelFirst(7) || in.CancelFirst(8) {
		t.Fatal("CancelFirst once-per-seq semantics broken")
	}
}

func TestStallAndPause(t *testing.T) {
	s, err := Parse("stall(seq=3,n=2,dur=5ms);stall(seq=4,dur=9ms);pause(seq=8,dur=1ms)")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(s)
	if d := in.StallBefore(3); d != 5*time.Millisecond {
		t.Fatalf("StallBefore(3) = %v", d)
	}
	if d := in.StallBefore(4); d != 9*time.Millisecond {
		t.Fatalf("StallBefore(4) = %v (want max of overlaps)", d)
	}
	if d := in.StallBefore(5); d != 0 {
		t.Fatalf("StallBefore(5) = %v", d)
	}
	if d := in.PauseBefore(8); d != time.Millisecond {
		t.Fatalf("PauseBefore(8) = %v", d)
	}
}

func TestOutageQueries(t *testing.T) {
	s, err := Parse("outage(node=1/2,t=10-20);outage(node=0/0,axis=1,t=15-30)")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(s)
	if !in.HasOutages() {
		t.Fatal("HasOutages = false")
	}
	// Outages cover [From, To): t = 10 and 29 are inside, 9 and 30 outside.
	for at, want := range map[int64]int{9: 0, 10: 1, 29: 1, 30: 0} {
		if got := len(in.ActiveOutages(at, nil)); got != want {
			t.Fatalf("ActiveOutages(%d) = %d events, want %d", at, got, want)
		}
	}
	// Epochs change at every boundary {10, 15, 20, 30}.
	epochs := map[int64]int{}
	for _, at := range []int64{0, 10, 14, 15, 19, 20, 29, 30} {
		epochs[at] = in.OutageEpoch(at)
	}
	if epochs[10] == epochs[0] || epochs[15] == epochs[14] || epochs[20] == epochs[19] || epochs[30] == epochs[29] {
		t.Fatalf("epochs did not change at boundaries: %v", epochs)
	}
	if epochs[10] != epochs[14] || epochs[20] != epochs[29] {
		t.Fatalf("epochs changed inside stable intervals: %v", epochs)
	}
	if got := in.ActiveOutages(16, nil); len(got) != 2 {
		t.Fatalf("ActiveOutages(16) = %d events, want 2", len(got))
	}
	if got := in.ActiveOutages(25, nil); len(got) != 1 || got[0].Axis != 1 {
		t.Fatalf("ActiveOutages(25) = %+v", got)
	}
}

func TestRandDeterministic(t *testing.T) {
	a := Rand(42, 1000, 64, []int{8, 8})
	b := Rand(42, 1000, 64, []int{8, 8})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Rand not deterministic for equal seeds")
	}
	if a.String() == Rand(43, 1000, 64, []int{8, 8}).String() {
		t.Fatal("different seeds produced identical schedules")
	}
	// Generated schedules are valid DSL and round-trip.
	s2, err := Parse(a.String())
	if err != nil {
		t.Fatalf("Parse(Rand.String()): %v", err)
	}
	if !reflect.DeepEqual(a, s2) {
		t.Fatalf("Rand round trip mismatch:\n%v\n%v", a, s2)
	}
}

func TestNilInjectorSafe(t *testing.T) {
	var in *Injector
	if in.StallBefore(1) != 0 || in.PauseBefore(1) != 0 || in.PanicAt(1) ||
		in.CancelFirst(1) || in.StormBounce(1) || in.HasOutages() || len(in.ActiveOutages(1, nil)) != 0 {
		t.Fatal("nil injector hooks must be no-ops")
	}
}

func FuzzParse(f *testing.F) {
	f.Add("storm(seq=200,n=50,count=3)")
	f.Add("stall(seq=120,n=8,dur=2ms);panic(seq=300)")
	f.Add("outage(node=3/4,axis=0,t=10-40)")
	f.Add("outage(node=5,t=20-30);cancel(seq=500,n=5)")
	f.Add(";;;")
	f.Add("storm(seq=1,count=9999999999999999999)")
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil {
			return
		}
		// Successful parses must round-trip through the canonical form.
		canon := s.String()
		s2, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) ok but canonical %q fails: %v", spec, canon, err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("canonical round trip diverged for %q", spec)
		}
		if strings.Contains(canon, ";;") {
			t.Fatalf("canonical form %q has empty events", canon)
		}
	})
}
