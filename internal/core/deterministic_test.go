package core

import (
	"math"
	"math/rand"
	"testing"

	"gridroute/internal/grid"
	"gridroute/internal/netsim"
	"gridroute/internal/optbound"
	"gridroute/internal/scenario"
	"gridroute/internal/spacetime"
)

func TestDetLineRandomWorkload(t *testing.T) {
	g := grid.Line(48, 3, 3)
	rng := rand.New(rand.NewSource(1))
	reqs := scenario.Uniform(g, 160, 96, rng)
	res, err := RunDeterministic(g, reqs, DetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RouteStats.Anomalies != 0 {
		t.Fatalf("anomalies: %d (theory says 0 on a line)", res.RouteStats.Anomalies)
	}
	if res.Throughput == 0 {
		t.Fatal("no throughput on a light workload")
	}
	if res.MaxLoad > res.LoadBound+1e-9 {
		t.Fatalf("sketch load %v exceeds Theorem 1 bound %v", res.MaxLoad, res.LoadBound)
	}
	// The Sec. 5.3 chain: alg ⊆ ipp′ ⊆ ipp.
	if !(res.Throughput <= res.ReachedLastTile && res.ReachedLastTile <= res.Admitted) {
		t.Fatalf("alg=%d ipp'=%d ipp=%d violate the chain", res.Throughput, res.ReachedLastTile, res.Admitted)
	}
	// Every delivered schedule must be executable with the real capacities.
	rep := netsim.ReplaySchedules(g, reqs, res.Schedules, netsim.Model1)
	if len(rep.Violation) != 0 {
		t.Fatalf("replay violations: %v", rep.Violation[:min(3, len(rep.Violation))])
	}
	if rep.Throughput() != res.Throughput {
		t.Fatalf("replay throughput %d != reported %d", rep.Throughput(), res.Throughput)
	}
}

func TestDetLineSaturating(t *testing.T) {
	g := grid.Line(32, 3, 3)
	rng := rand.New(rand.NewSource(2))
	reqs := scenario.Saturating(g, 8, 2, rng)
	res, err := RunDeterministic(g, reqs, DetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RouteStats.Anomalies != 0 {
		t.Fatalf("anomalies: %d", res.RouteStats.Anomalies)
	}
	rep := netsim.ReplaySchedules(g, reqs, res.Schedules, netsim.Model1)
	if len(rep.Violation) != 0 {
		t.Fatalf("replay violations under saturation: %v", rep.Violation[0])
	}
	// Admission control must bite under ~2x-capacity load.
	if res.Admitted == len(reqs) {
		t.Fatal("expected some rejections under saturation")
	}
	if res.Throughput == 0 {
		t.Fatal("expected positive throughput under saturation")
	}
}

func TestDetLineDeadlines(t *testing.T) {
	g := grid.Line(32, 3, 3)
	rng := rand.New(rand.NewSource(3))
	base := scenario.Uniform(g, 120, 64, rng)
	reqs := scenario.WithDeadlines(g, base, 2.0, 16, rng)
	res, err := RunDeterministic(g, reqs, DetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RouteStats.Anomalies != 0 {
		t.Fatalf("anomalies: %d", res.RouteStats.Anomalies)
	}
	rep := netsim.ReplaySchedules(g, reqs, res.Schedules, netsim.Model1)
	if len(rep.Violation) != 0 {
		t.Fatalf("replay violations: %v", rep.Violation[0])
	}
	// Sec. 5.4 claim: requests that are not preempted arrive on time. Every
	// schedule we emit must deliver by its deadline.
	for i, o := range res.Outcomes {
		if o.Delivered && reqs[i].Deadline != grid.InfDeadline && o.DeliveredAt > reqs[i].Deadline {
			t.Fatalf("req %d delivered late: %d > %d", i, o.DeliveredAt, reqs[i].Deadline)
		}
	}
	if res.Throughput == 0 {
		t.Fatal("no deadline throughput")
	}
}

func TestDetBufferlessLine(t *testing.T) {
	g := grid.Line(32, 0, 3)
	rng := rand.New(rand.NewSource(4))
	reqs := scenario.Uniform(g, 100, 64, rng)
	res, err := RunDeterministic(g, reqs, DetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep := netsim.ReplaySchedules(g, reqs, res.Schedules, netsim.Model1)
	if len(rep.Violation) != 0 {
		t.Fatalf("replay violations: %v", rep.Violation[0])
	}
	// Bufferless schedules may not contain holds.
	for _, s := range res.Schedules {
		if s == nil {
			continue
		}
		for _, m := range s.Moves {
			if m < 0 {
				t.Fatal("bufferless schedule contains a hold")
			}
		}
	}
	opt := optbound.ExactBufferlessLine(g, reqs)
	if res.Throughput > opt {
		t.Fatalf("throughput %d exceeds exact OPT %d", res.Throughput, opt)
	}
	if res.Throughput == 0 && opt > 0 {
		t.Fatal("zero throughput but OPT positive")
	}
}

func TestDetGrid2D(t *testing.T) {
	g := grid.New([]int{12, 12}, 3, 3)
	rng := rand.New(rand.NewSource(5))
	reqs := scenario.Uniform(g, 120, 48, rng)
	res, err := RunDeterministic(g, reqs, DetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep := netsim.ReplaySchedules(g, reqs, res.Schedules, netsim.Model1)
	if len(rep.Violation) != 0 {
		t.Fatalf("2-d replay violations: %v", rep.Violation[0])
	}
	if res.Throughput == 0 {
		t.Fatal("no 2-d throughput")
	}
}

func TestDetRejectsBadParams(t *testing.T) {
	g := grid.Line(16, 1, 1)
	if _, err := RunDeterministic(g, nil, DetConfig{}); err == nil {
		t.Fatal("B=c=1 must be rejected (needs B,c ≥ 3)")
	}
	g2 := grid.Line(16, 0, 1)
	if _, err := RunDeterministic(g2, nil, DetConfig{}); err == nil {
		t.Fatal("bufferless with c=1 must be rejected")
	}
}

func TestDetRejectsInvalidRequests(t *testing.T) {
	g := grid.Line(16, 3, 3)
	bad := []grid.Request{{Src: grid.Vec{5}, Dst: grid.Vec{2}, Arrival: 0, Deadline: grid.InfDeadline}}
	if _, err := RunDeterministic(g, bad, DetConfig{}); err == nil {
		t.Fatal("backwards request must be rejected")
	}
}

func TestLargeCapacity(t *testing.T) {
	// B = c = 64 ≥ k for a small line.
	g := grid.Line(16, 64, 64)
	rng := rand.New(rand.NewSource(6))
	reqs := scenario.Saturating(g, 6, 8, rng)
	res, err := RunLargeCapacity(g, reqs, DetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput == 0 {
		t.Fatal("no throughput")
	}
	rep := netsim.ReplaySchedules(g, reqs, res.Schedules, netsim.Model1)
	if len(rep.Violation) != 0 {
		t.Fatalf("Thm 13 replay violations: %v", rep.Violation[0])
	}
	// Non-preemptive: every admitted request is delivered.
	for i, o := range res.Outcomes {
		if o.Admitted && !o.Delivered {
			t.Fatalf("req %d admitted but not delivered", i)
		}
	}
	// Load on the scaled instance obeys Thm 1, so true load ≤ k·scaled ≤ B.
	if res.MaxLoad > float64(res.K)+1e-9 {
		t.Fatalf("scaled load %v > k=%d", res.MaxLoad, res.K)
	}
}

func TestLargeCapacityRejectsSmallB(t *testing.T) {
	g := grid.Line(64, 3, 3)
	if _, err := RunLargeCapacity(g, nil, DetConfig{}); err == nil {
		t.Fatal("Thm 13 with B < k must error")
	}
}

// TestLargeCapacityGolden pins the Theorem 13 algorithm bit for bit on a
// 32-node line with B = c = 64: E4's instance shape (6 rounds, bursts of 3,
// horizon slack 2), where every request is admitted, and a heavier burst
// that rejects about a third. MaxLoad and PrimalValue are compared as
// math.Float64bits.
func TestLargeCapacityGolden(t *testing.T) {
	cases := []struct {
		rounds, burst int
		throughput    int
		maxLoadBits   uint64
		primalBits    uint64
	}{
		{6, 3, 502, 0x4004000000000000, 0x407f752e65123fba},
		{8, 24, 3823, 0x4028000000000000, 0x40ac0222c8998c2a},
	}
	for _, tc := range cases {
		g := grid.Line(32, 64, 64)
		reqs := scenario.Saturating(g, tc.rounds, tc.burst, rand.New(rand.NewSource(1)))
		res, err := RunLargeCapacity(g, reqs, DetConfig{Horizon: spacetime.SuggestHorizon(g, reqs, 2)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Throughput != tc.throughput || math.Float64bits(res.MaxLoad) != tc.maxLoadBits ||
			math.Float64bits(res.PrimalValue) != tc.primalBits {
			t.Errorf("rounds %d burst %d: throughput %d, MaxLoad %v (%#x), PrimalValue %v (%#x); want %d, %#x, %#x",
				tc.rounds, tc.burst, res.Throughput, res.MaxLoad, math.Float64bits(res.MaxLoad),
				res.PrimalValue, math.Float64bits(res.PrimalValue), tc.throughput, tc.maxLoadBits, tc.primalBits)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
