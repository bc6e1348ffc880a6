package netsim

import (
	"testing"

	"gridroute/internal/grid"
	"gridroute/internal/spacetime"
)

func mkSchedule(r *grid.Request, moves ...spacetime.Move) *spacetime.Schedule {
	return &spacetime.Schedule{Req: r, Src: r.Src.Clone(), StartT: r.Arrival, Moves: moves}
}

func TestReplayDelivers(t *testing.T) {
	g := grid.Line(5, 1, 1)
	reqs := []grid.Request{{ID: 0, Src: grid.Vec{0}, Dst: grid.Vec{3}, Arrival: 0, Deadline: grid.InfDeadline}}
	s := mkSchedule(&reqs[0], 0, 0, 0)
	res := ReplaySchedules(g, reqs, []*spacetime.Schedule{s}, Model1)
	if len(res.Violation) != 0 {
		t.Fatalf("violations: %v", res.Violation)
	}
	if res.Throughput() != 1 {
		t.Fatalf("throughput = %d", res.Throughput())
	}
	if res.Outcomes[0].DeliveredAt != 3 {
		t.Fatalf("delivered at %d", res.Outcomes[0].DeliveredAt)
	}
}

func TestReplayDetectsLinkOverflow(t *testing.T) {
	g := grid.Line(5, 2, 1)
	reqs := []grid.Request{
		{ID: 0, Src: grid.Vec{0}, Dst: grid.Vec{1}, Arrival: 0, Deadline: grid.InfDeadline},
		{ID: 1, Src: grid.Vec{0}, Dst: grid.Vec{1}, Arrival: 0, Deadline: grid.InfDeadline},
	}
	ss := []*spacetime.Schedule{mkSchedule(&reqs[0], 0), mkSchedule(&reqs[1], 0)}
	res := ReplaySchedules(g, reqs, ss, Model1)
	if len(res.Violation) == 0 {
		t.Fatal("two packets on a c=1 link in the same step must violate")
	}
}

func TestReplayDetectsBufferOverflow(t *testing.T) {
	g := grid.Line(5, 1, 2)
	reqs := []grid.Request{
		{ID: 0, Src: grid.Vec{0}, Dst: grid.Vec{1}, Arrival: 0, Deadline: grid.InfDeadline},
		{ID: 1, Src: grid.Vec{0}, Dst: grid.Vec{1}, Arrival: 0, Deadline: grid.InfDeadline},
	}
	// Both hold at node 0 during step 0 → 2 > B=1.
	ss := []*spacetime.Schedule{mkSchedule(&reqs[0], spacetime.Hold, 0), mkSchedule(&reqs[1], spacetime.Hold, 0)}
	res := ReplaySchedules(g, reqs, ss, Model1)
	if len(res.Violation) == 0 {
		t.Fatal("buffer overflow undetected")
	}
}

// Appendix F, Remark 1: Model 1 with B=c=1 is strictly stronger than
// Model 2 with B=1. A through-packet and a simultaneous local injection can
// both be served under Model 1 (one cuts through, one stores), but under
// Model 2 both occupy node buffer space in the same cycle.
func TestModelSeparationRemark1(t *testing.T) {
	g := grid.Line(4, 1, 1)
	reqs := []grid.Request{
		{ID: 0, Src: grid.Vec{0}, Dst: grid.Vec{2}, Arrival: 0, Deadline: grid.InfDeadline}, // passes node 1 at t=1
		{ID: 1, Src: grid.Vec{1}, Dst: grid.Vec{2}, Arrival: 1, Deadline: grid.InfDeadline}, // injected at node 1 at t=1
	}
	ss := []*spacetime.Schedule{
		mkSchedule(&reqs[0], 0, 0),              // 0→1 during step 0, 1→2 during step 1 (cut-through at node 1)
		mkSchedule(&reqs[1], spacetime.Hold, 0), // stored at node 1 during step 1, forwarded step 2
	}
	res1 := ReplaySchedules(g, reqs, ss, Model1)
	if len(res1.Violation) != 0 {
		t.Fatalf("Model 1 should accept this schedule: %v", res1.Violation)
	}
	if res1.Throughput() != 2 {
		t.Fatalf("Model 1 throughput = %d, want 2", res1.Throughput())
	}
	res2 := ReplaySchedules(g, reqs, ss, Model2)
	if len(res2.Violation) == 0 {
		t.Fatal("Model 2 must reject: both packets are present at node 1 in cycle 1")
	}
}

func TestReplayDeadline(t *testing.T) {
	g := grid.Line(5, 2, 1)
	reqs := []grid.Request{{ID: 0, Src: grid.Vec{0}, Dst: grid.Vec{2}, Arrival: 0, Deadline: 2}}
	late := mkSchedule(&reqs[0], spacetime.Hold, 0, 0) // arrives t=3
	res := ReplaySchedules(g, reqs, []*spacetime.Schedule{late}, Model1)
	if res.Throughput() != 0 || res.DeliveredCount() != 1 {
		t.Fatalf("late delivery should not count: tp=%d dc=%d", res.Throughput(), res.DeliveredCount())
	}
}

func TestReplayNilSchedules(t *testing.T) {
	g := grid.Line(5, 1, 1)
	reqs := []grid.Request{{ID: 0, Src: grid.Vec{0}, Dst: grid.Vec{3}, Arrival: 0, Deadline: grid.InfDeadline}}
	res := ReplaySchedules(g, reqs, []*spacetime.Schedule{nil}, Model1)
	if res.Outcomes[0].Kind != Unserved {
		t.Fatal("nil schedule should be unserved")
	}
}

type fifoPolicy struct{}

func (fifoPolicy) Name() string                        { return "fifo" }
func (fifoPolicy) Priority(p *Packet, now int64) int64 { return p.InjectedAt }
func (fifoPolicy) NextAxis(g *grid.Grid, p *Packet) int {
	for a := 0; a < g.D(); a++ {
		if p.Pos[a] < p.Req.Dst[a] {
			return a
		}
	}
	return -1
}

func TestRunLocalSimpleDelivery(t *testing.T) {
	g := grid.Line(6, 2, 1)
	reqs := []grid.Request{
		{ID: 0, Src: grid.Vec{0}, Dst: grid.Vec{5}, Arrival: 0, Deadline: grid.InfDeadline},
		{ID: 1, Src: grid.Vec{2}, Dst: grid.Vec{4}, Arrival: 1, Deadline: grid.InfDeadline},
	}
	res := RunLocal(g, reqs, fifoPolicy{}, Model1, 20)
	if res.Throughput() != 2 {
		t.Fatalf("throughput = %d, want 2", res.Throughput())
	}
	if res.Outcomes[0].DeliveredAt != 5 {
		t.Fatalf("packet 0 delivered at %d, want 5", res.Outcomes[0].DeliveredAt)
	}
}

func TestRunLocalLinkContention(t *testing.T) {
	g := grid.Line(4, 2, 1)
	// Two packets at the same node at the same time, c=1: one forwards, one
	// buffers, both eventually delivered.
	reqs := []grid.Request{
		{ID: 0, Src: grid.Vec{0}, Dst: grid.Vec{2}, Arrival: 0, Deadline: grid.InfDeadline},
		{ID: 1, Src: grid.Vec{0}, Dst: grid.Vec{2}, Arrival: 0, Deadline: grid.InfDeadline},
	}
	res := RunLocal(g, reqs, fifoPolicy{}, Model1, 20)
	if res.Throughput() != 2 {
		t.Fatalf("throughput = %d, want 2", res.Throughput())
	}
	if res.MaxBuffer != 1 {
		t.Fatalf("max buffer = %d, want 1", res.MaxBuffer)
	}
}

func TestRunLocalBufferDrops(t *testing.T) {
	g := grid.Line(4, 1, 1)
	// Three simultaneous packets, c=1, B=1: one forwards, one buffers, one
	// dropped.
	reqs := []grid.Request{
		{ID: 0, Src: grid.Vec{0}, Dst: grid.Vec{3}, Arrival: 0, Deadline: grid.InfDeadline},
		{ID: 1, Src: grid.Vec{0}, Dst: grid.Vec{3}, Arrival: 0, Deadline: grid.InfDeadline},
		{ID: 2, Src: grid.Vec{0}, Dst: grid.Vec{3}, Arrival: 0, Deadline: grid.InfDeadline},
	}
	res := RunLocal(g, reqs, fifoPolicy{}, Model1, 20)
	if res.Throughput() != 2 {
		t.Fatalf("throughput = %d, want 2", res.Throughput())
	}
	if res.CountKind(Dropped) != 1 {
		t.Fatalf("dropped = %d, want 1", res.CountKind(Dropped))
	}
}

func TestRunLocalModel2StricterThanModel1(t *testing.T) {
	g := grid.Line(4, 1, 1)
	// Remark 1 again, now through the policy engine: a stream packet passes
	// node 1 exactly when a local packet is injected there.
	reqs := []grid.Request{
		{ID: 0, Src: grid.Vec{0}, Dst: grid.Vec{3}, Arrival: 0, Deadline: grid.InfDeadline},
		{ID: 1, Src: grid.Vec{1}, Dst: grid.Vec{3}, Arrival: 1, Deadline: grid.InfDeadline},
	}
	res1 := RunLocal(g, reqs, fifoPolicy{}, Model1, 20)
	res2 := RunLocal(g, reqs, fifoPolicy{}, Model2, 20)
	if res1.Throughput() != 2 {
		t.Fatalf("Model 1 throughput = %d, want 2", res1.Throughput())
	}
	if res2.Throughput() != 1 || res2.CountKind(Dropped) != 1 {
		t.Fatalf("Model 2 should drop one: tp=%d dropped=%d", res2.Throughput(), res2.CountKind(Dropped))
	}
}

func TestRunLocal2D(t *testing.T) {
	g := grid.New([]int{4, 4}, 1, 1)
	reqs := []grid.Request{
		{ID: 0, Src: grid.Vec{0, 0}, Dst: grid.Vec{3, 3}, Arrival: 0, Deadline: grid.InfDeadline},
		{ID: 1, Src: grid.Vec{1, 0}, Dst: grid.Vec{3, 2}, Arrival: 0, Deadline: grid.InfDeadline},
	}
	res := RunLocal(g, reqs, fifoPolicy{}, Model1, 30)
	if res.Throughput() != 2 {
		t.Fatalf("2-d throughput = %d, want 2", res.Throughput())
	}
}

func TestRunLocalStuckAtHorizon(t *testing.T) {
	g := grid.Line(8, 1, 1)
	reqs := []grid.Request{{ID: 0, Src: grid.Vec{0}, Dst: grid.Vec{7}, Arrival: 0, Deadline: grid.InfDeadline}}
	res := RunLocal(g, reqs, fifoPolicy{}, Model1, 3)
	if res.CountKind(Stuck) != 1 {
		t.Fatalf("packet should be stuck at horizon, got %v", res.Outcomes[0].Kind)
	}
}

func TestSrcEqualsDstInstantDelivery(t *testing.T) {
	g := grid.Line(4, 1, 1)
	reqs := []grid.Request{{ID: 0, Src: grid.Vec{2}, Dst: grid.Vec{2}, Arrival: 5, Deadline: 5}}
	res := RunLocal(g, reqs, fifoPolicy{}, Model1, 10)
	if res.Throughput() != 1 {
		t.Fatal("src==dst should deliver instantly")
	}
}

// TestReplayerWarmReuse replays the same schedule set repeatedly through one
// (Incremental, Result) pair and checks results stay identical — the
// epoch-stamped occupancy state must fully reset between runs.
func TestReplayerWarmReuse(t *testing.T) {
	g := grid.Line(6, 1, 1)
	reqs := []grid.Request{
		{ID: 0, Src: grid.Vec{0}, Dst: grid.Vec{4}, Arrival: 0, Deadline: grid.InfDeadline},
		{ID: 1, Src: grid.Vec{1}, Dst: grid.Vec{3}, Arrival: 1, Deadline: grid.InfDeadline},
	}
	ss := []*spacetime.Schedule{
		{Req: &reqs[0], Src: grid.Vec{0}, StartT: 0, Moves: []spacetime.Move{0, 0, spacetime.Hold, 0, 0}},
		{Req: &reqs[1], Src: grid.Vec{1}, StartT: 1, Moves: []spacetime.Move{0, spacetime.Hold, 0}},
	}
	var inc Incremental
	var res Result
	for _, model := range []Model{Model1, Model2} {
		want := ReplaySchedules(g, reqs, ss, model)
		for i := 0; i < 3; i++ {
			inc.ReplayInto(g, reqs, ss, model, &res)
			if res.Throughput() != want.Throughput() || res.MaxBuffer != want.MaxBuffer ||
				res.MaxLink != want.MaxLink || len(res.Violation) != len(want.Violation) {
				t.Fatalf("%v run %d: warm replay diverged: %+v vs %+v", model, i, res, *want)
			}
		}
	}
}

// TestModel2PresenceCounting pins the folded Model-2 accounting to a
// hand-computed instance: two packets meeting at one node in the same cycle
// must both occupy buffer slots, even though one is forwarded.
func TestModel2PresenceCounting(t *testing.T) {
	g := grid.Line(4, 2, 1)
	reqs := []grid.Request{
		{ID: 0, Src: grid.Vec{0}, Dst: grid.Vec{3}, Arrival: 0, Deadline: grid.InfDeadline},
		{ID: 1, Src: grid.Vec{1}, Dst: grid.Vec{2}, Arrival: 1, Deadline: grid.InfDeadline},
	}
	// Packet 0 reaches node 1 at t=1, where packet 1 is injected at t=1 and
	// holds; both are present at node 1 during cycle 1.
	ss := []*spacetime.Schedule{
		{Req: &reqs[0], Src: grid.Vec{0}, StartT: 0, Moves: []spacetime.Move{0, 0, 0}},
		{Req: &reqs[1], Src: grid.Vec{1}, StartT: 1, Moves: []spacetime.Move{spacetime.Hold, 0}},
	}
	m1 := ReplaySchedules(g, reqs, ss, Model1)
	if m1.MaxBuffer != 1 {
		t.Fatalf("Model 1 MaxBuffer = %d, want 1 (only the held packet)", m1.MaxBuffer)
	}
	m2 := ReplaySchedules(g, reqs, ss, Model2)
	if m2.MaxBuffer != 2 {
		t.Fatalf("Model 2 MaxBuffer = %d, want 2 (presence of both packets)", m2.MaxBuffer)
	}
	if len(m1.Violation) != 0 || len(m2.Violation) != 0 {
		t.Fatalf("unexpected violations: %v / %v", m1.Violation, m2.Violation)
	}
	if m1.Throughput() != 2 || m2.Throughput() != 2 {
		t.Fatalf("throughput: %d / %d, want 2 / 2", m1.Throughput(), m2.Throughput())
	}
}
