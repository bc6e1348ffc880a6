package netsim

import (
	"testing"

	"gridroute/internal/grid"
	"gridroute/internal/spacetime"
)

// TestIncrementalCleanRunNoViolations checks a conflict-free schedule set
// replays without violations.
func TestIncrementalCleanRunNoViolations(t *testing.T) {
	g := grid.Line(8, 2, 2)
	reqs := []grid.Request{
		{ID: 0, Src: grid.Vec{0}, Dst: grid.Vec{2}, Arrival: 0, Deadline: grid.InfDeadline},
		{ID: 1, Src: grid.Vec{3}, Dst: grid.Vec{5}, Arrival: 0, Deadline: grid.InfDeadline},
	}
	schedules := []*spacetime.Schedule{
		mkSchedule(&reqs[0], 0, spacetime.Hold, 0),
		mkSchedule(&reqs[1], 0, 0),
	}
	inc := NewIncremental(g, Model1, 0, 3)
	for i := range reqs {
		if o := inc.Add(&reqs[i], schedules[i]); o.Kind != Delivered || !o.OnTime {
			t.Fatalf("req %d outcome %+v", i, o)
		}
	}
	if v := inc.Violations(); len(v) != 0 {
		t.Fatalf("violations %v", v)
	}
}

// TestIncrementalWindowGuard checks schedules outside the declared window
// are flagged instead of corrupting the occupancy arrays.
func TestIncrementalWindowGuard(t *testing.T) {
	g := grid.Line(8, 2, 2)
	r := grid.Request{ID: 0, Src: grid.Vec{0}, Dst: grid.Vec{2}, Arrival: 9, Deadline: grid.InfDeadline}
	s := mkSchedule(&r, 0, 0)
	inc := NewIncremental(g, Model1, 0, 5)
	if o := inc.Add(&r, s); o.Kind == Delivered {
		t.Fatal("out-of-window schedule must not deliver")
	}
	if len(inc.Violations()) == 0 {
		t.Fatal("out-of-window schedule must be flagged")
	}
}
