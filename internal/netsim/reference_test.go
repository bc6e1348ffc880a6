package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gridroute/internal/core"
	"gridroute/internal/grid"
	"gridroute/internal/scenario"
	"gridroute/internal/spacetime"
)

// The reference replay: a deliberately naive router-level simulator that
// defines what schedule replay must report. It steps the window cycle by
// cycle, keeps every packet at an explicit node, gives each node an explicit
// buffer list bounded by B and each directed link a per-cycle counter
// bounded by c, and records every breach with its reason. It shares no code
// shape with Incremental: maps and lists, no dense counters, time-major
// instead of schedule-major.

// Breach kinds, one per reason the reference records.
const (
	kindBuffer   = "buffer"   // a node held more than B packets in a cycle
	kindLink     = "link"     // a link carried more than c packets in a cycle
	kindOffGrid  = "off-grid" // a move left the grid
	kindMismatch = "mismatch" // a schedule does not start at its request
	kindWindow   = "window"   // a schedule falls outside the replay window
)

var plantedKinds = []string{kindBuffer, kindLink, kindOffGrid, kindMismatch, kindWindow}

// refReport is what a replay reports: per-request outcomes, peaks and the
// breaches rendered in netsim's violation format.
type refReport struct {
	outcomes   []Outcome
	violations []string
	maxBuffer  int
	maxLink    int
	kinds      map[string]int // breaches by kind (reference only)
}

// refPacket is a packet in flight: the node it sits at and its next move.
type refPacket struct {
	req   int
	at    grid.Vec
	moves []spacetime.Move
	step  int
}

// refNode is a router's buffer: the packets occupying a slot this cycle —
// under Model 1 those held across the cycle boundary, under Model 2 every
// packet present that is not at its destination.
type refNode struct {
	id       int
	inBuffer []int
}

// refReplay replays schedules[i] as reqs[i]'s schedule under model over the
// window [minT, maxT].
func refReplay(g *grid.Grid, reqs []grid.Request, schedules []*spacetime.Schedule, model Model, minT, maxT int64) refReport {
	rep := refReport{outcomes: make([]Outcome, len(reqs)), kinds: map[string]int{}}
	breach := func(kind, reason string) {
		rep.kinds[kind]++
		rep.violations = append(rep.violations, reason)
	}

	injectAt := map[int64][]int{}
	for i, s := range schedules {
		if s == nil {
			continue
		}
		r := &reqs[i]
		end := s.StartT + int64(len(s.Moves))
		switch {
		case s.Req == nil || !s.Req.Src.Eq(r.Src) || s.Req.Arrival != r.Arrival || !s.Src.Eq(r.Src) || s.StartT != r.Arrival:
			breach(kindMismatch, fmt.Sprintf("req %d: schedule/request mismatch", r.ID))
		case s.StartT < minT || end > maxT:
			breach(kindWindow, fmt.Sprintf("req %d: schedule [%d,%d] outside replay window [%d,%d]", r.ID, s.StartT, end, minT, maxT))
		default:
			injectAt[s.StartT] = append(injectAt[s.StartT], i)
		}
	}

	var inFlight []*refPacket
	for t := minT; t <= maxT; t++ {
		for _, i := range injectAt[t] {
			inFlight = append(inFlight, &refPacket{req: i, at: schedules[i].Src.Clone(), moves: schedules[i].Moves})
		}
		nodes := map[string]*refNode{}
		linkUse := map[[2]int]int{} // (node id, axis) → packets sent this cycle
		var next []*refPacket
		for _, p := range inFlight {
			r := &reqs[p.req]
			if p.step == len(p.moves) {
				if p.at.Eq(r.Dst) {
					rep.outcomes[p.req] = Outcome{Kind: Delivered, DeliveredAt: t, OnTime: r.Deadline == grid.InfDeadline || t <= r.Deadline}
				} else {
					rep.outcomes[p.req] = Outcome{Kind: Dropped}
				}
				continue
			}
			key := p.at.String()
			n := nodes[key]
			if n == nil {
				n = &refNode{id: g.Index(p.at)}
				nodes[key] = n
			}
			move := p.moves[p.step]
			held := move == spacetime.Hold
			if model == Model1 && held || model == Model2 && !p.at.Eq(r.Dst) {
				n.inBuffer = append(n.inBuffer, p.req)
			}
			if !held {
				to := p.at.Clone()
				to[move]++
				if !g.Contains(to) {
					breach(kindOffGrid, fmt.Sprintf("req %d: leaves grid", r.ID))
					rep.outcomes[p.req] = Outcome{Kind: Dropped}
					continue
				}
				linkUse[[2]int{n.id, int(move)}]++
				p.at = to
			}
			p.step++
			next = append(next, p)
		}
		inFlight = next

		for _, n := range nodes {
			rep.maxBuffer = max(rep.maxBuffer, len(n.inBuffer))
			if len(n.inBuffer) > g.B {
				breach(kindBuffer, fmt.Sprintf("buffer exceeded: node %d t=%d: %d > %d", n.id, t, len(n.inBuffer), g.B))
			}
		}
		for link, used := range linkUse {
			rep.maxLink = max(rep.maxLink, used)
			if used > g.C {
				breach(kindLink, fmt.Sprintf("link capacity exceeded: node %d axis %d t=%d: %d > %d", link[0], link[1], t, used, g.C))
			}
		}
	}
	return rep
}

// scheduleSpan returns the smallest window holding every non-nil schedule:
// [earliest start, latest end].
func scheduleSpan(schedules []*spacetime.Schedule) (minT, maxT int64) {
	minT, maxT = 1<<62, 0
	for _, s := range schedules {
		if s != nil {
			minT = min(minT, s.StartT)
			maxT = max(maxT, s.StartT+int64(len(s.Moves)))
		}
	}
	if minT > maxT {
		return 0, 0
	}
	return minT, maxT
}

// plannedSchedule is a request with the moves of its schedule, before the
// request slice is final (a schedule points into it).
type plannedSchedule struct {
	req      grid.Request
	moves    []spacetime.Move
	none     bool // rejected: nil schedule
	mismatch int  // 0: matches its request; 1–4: see buildCase
}

// buildCase numbers the planned requests and builds their schedules, applying
// each planned mismatch: 1 drops the schedule's request, 2 starts it at
// another node, 3 starts it one step late, 4 attaches another request.
func buildCase(g *grid.Grid, plan []plannedSchedule) ([]grid.Request, []*spacetime.Schedule) {
	reqs := make([]grid.Request, len(plan))
	for i := range plan {
		reqs[i] = plan[i].req
		reqs[i].ID = i
	}
	schedules := make([]*spacetime.Schedule, len(plan))
	for i, p := range plan {
		if p.none {
			continue
		}
		s := &spacetime.Schedule{Req: &reqs[i], Src: reqs[i].Src.Clone(), StartT: reqs[i].Arrival, Moves: p.moves}
		switch p.mismatch {
		case 1:
			s.Req = nil
		case 2:
			s.Src[0] = (s.Src[0] + 1) % g.Dims[0]
		case 3:
			s.StartT++
		case 4:
			other := grid.Request{Src: reqs[i].Src, Arrival: reqs[i].Arrival + 1}
			s.Req = &other
		}
		schedules[i] = s
	}
	return reqs, schedules
}

func randNode(rng *rand.Rand, g *grid.Grid) grid.Vec {
	v := make(grid.Vec, g.D())
	for a := range v {
		v[a] = rng.Intn(g.Dims[a])
	}
	return v
}

// randomPlan draws random requests with random holds and forward moves, nil
// schedules, truncated schedules and deadlines, and plants each fault kind
// with probability 1/2: B+1 packets holding at one node in one cycle, c+1
// packets sharing one link in one cycle, a move off the grid, and a
// schedule that does not match its request.
func randomPlan(rng *rand.Rand, g *grid.Grid) []plannedSchedule {
	var plan []plannedSchedule
	for n := 2 + rng.Intn(10); n > 0; n-- {
		src := randNode(rng, g)
		dst := src.Clone()
		var moves []spacetime.Move
		for a := range dst {
			dst[a] += rng.Intn(g.Dims[a] - src[a])
			for k := src[a]; k < dst[a]; k++ {
				moves = append(moves, spacetime.Move(a))
			}
		}
		for h := rng.Intn(4); h > 0; h-- {
			moves = append(moves, spacetime.Hold)
		}
		rng.Shuffle(len(moves), func(i, j int) { moves[i], moves[j] = moves[j], moves[i] })
		if len(moves) > 0 && rng.Intn(8) == 0 {
			moves = moves[:rng.Intn(len(moves))] // ends short of its destination
		}
		arrival := int64(rng.Intn(6))
		deadline := int64(grid.InfDeadline)
		if rng.Intn(3) > 0 {
			deadline = arrival + int64(g.Dist(src, dst)) + int64(rng.Intn(4))
		}
		plan = append(plan, plannedSchedule{
			req:   grid.Request{Src: src, Dst: dst, Arrival: arrival, Deadline: deadline},
			moves: moves,
			none:  rng.Intn(8) == 0,
		})
	}

	// A node and an axis it can still move along, for the planted groups.
	axis := rng.Intn(g.D())
	at := randNode(rng, g)
	at[axis] = rng.Intn(g.Dims[axis] - 1)
	step := at.Clone()
	step[axis]++
	arrival := int64(rng.Intn(6))
	if rng.Intn(2) == 0 { // a hold past B
		for k := 0; k <= g.B; k++ {
			plan = append(plan, plannedSchedule{
				req:   grid.Request{Src: at, Dst: step, Arrival: arrival, Deadline: grid.InfDeadline},
				moves: []spacetime.Move{spacetime.Hold, spacetime.Move(axis)},
			})
		}
	}
	if rng.Intn(2) == 0 { // a doubled link
		for k := 0; k <= g.C; k++ {
			plan = append(plan, plannedSchedule{
				req:   grid.Request{Src: at, Dst: step, Arrival: arrival + 1, Deadline: grid.InfDeadline},
				moves: []spacetime.Move{spacetime.Move(axis)},
			})
		}
	}
	if rng.Intn(2) == 0 { // a move off the grid
		src := randNode(rng, g)
		var moves []spacetime.Move
		for k := src[axis]; k < g.Dims[axis]; k++ {
			moves = append(moves, spacetime.Move(axis))
		}
		plan = append(plan, plannedSchedule{
			req:   grid.Request{Src: src, Dst: src, Arrival: int64(rng.Intn(6)), Deadline: grid.InfDeadline},
			moves: moves,
		})
	}
	if rng.Intn(2) == 0 { // a request mismatch
		plan = append(plan, plannedSchedule{
			req:      grid.Request{Src: at, Dst: step, Arrival: arrival, Deadline: grid.InfDeadline},
			moves:    []spacetime.Move{spacetime.Move(axis)},
			mismatch: 1 + rng.Intn(4),
		})
	}
	rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	return plan
}

// TestReplayMatchesReference checks every replay front end against the
// reference on random schedule sets with planted faults and on real
// schedules of the deterministic algorithm, in both node models:
// ReplaySchedules, one warm Incremental.ReplayInto reused across every case,
// and a fresh Incremental fed one schedule at a time over a declared window
// that may cut off the earliest or latest schedules. Each must report the
// reference's outcomes, peaks and violation set.
func TestReplayMatchesReference(t *testing.T) {
	grids := []struct {
		name string
		dims []int
	}{
		{"line", []int{9}},
		{"2d", []int{5, 4}},
		{"3d", []int{3, 4, 3}},
	}
	var warm Incremental
	var warmRes Result
	seen := map[string]map[string]int{} // "grid/model" → breach kind → count

	check := func(t *testing.T, g *grid.Grid, reqs []grid.Request, schedules []*spacetime.Schedule, model Model, winLo, winHi int64, tally map[string]int) {
		t.Helper()
		minT, maxT := scheduleSpan(schedules)
		want := refReplay(g, reqs, schedules, model, minT, maxT)

		batch := ReplaySchedules(g, reqs, schedules, model)
		sameReport(t, "ReplaySchedules", refReport{batch.Outcomes, batch.Violation, batch.MaxBuffer, batch.MaxLink, nil}, want)

		warm.ReplayInto(g, reqs, schedules, model, &warmRes)
		sameReport(t, "warm ReplayInto", refReport{warmRes.Outcomes, warmRes.Violation, warmRes.MaxBuffer, warmRes.MaxLink, nil}, want)

		wantInc := refReplay(g, reqs, schedules, model, winLo, winHi)
		inc := NewIncremental(g, model, winLo, winHi)
		outcomes := make([]Outcome, len(reqs))
		for i := range reqs {
			outcomes[i] = inc.Add(&reqs[i], schedules[i])
		}
		sameReport(t, "Incremental", refReport{outcomes, inc.Violations(), inc.maxBuffer, inc.maxLink, nil}, wantInc)

		for kind, n := range want.kinds {
			tally[kind] += n
		}
		for kind, n := range wantInc.kinds {
			tally[kind] += n
		}
	}

	for _, gd := range grids {
		for _, model := range []Model{Model1, Model2} {
			tally := map[string]int{}
			seen[gd.name+"/"+model.String()] = tally
			t.Run(gd.name+"/"+model.String(), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(gd.dims))*10 + int64(model)))
				for c := 0; c < 150; c++ {
					g := grid.New(gd.dims, 1+rng.Intn(3), 1+rng.Intn(3))
					reqs, schedules := buildCase(g, randomPlan(rng, g))
					// The Incremental's declared window may cut off the
					// earliest or the latest schedules.
					minT, maxT := scheduleSpan(schedules)
					winLo, winHi := minT+int64(rng.Intn(2)), maxT-int64(rng.Intn(2))
					check(t, g, reqs, schedules, model, winLo, max(winLo, winHi), tally)
					if t.Failed() {
						t.Fatalf("case %d on %v B=%d c=%d", c, g.Dims, g.B, g.C)
					}
				}

				// Real schedules, on the grid they were routed for and on
				// one with a single buffer slot and link lane.
				g := grid.New(gd.dims, 3, 3)
				reqs := scenario.Uniform(g, 120, 6, rand.New(rand.NewSource(int64(len(gd.dims)))))
				res, err := core.RunDeterministic(g, reqs, core.DetConfig{})
				if err != nil {
					t.Fatal(err)
				}
				minT, maxT := scheduleSpan(res.Schedules)
				for _, g := range []*grid.Grid{g, grid.New(gd.dims, 1, 1)} {
					check(t, g, reqs, res.Schedules, model, minT, maxT, tally)
				}
			})
		}
	}

	for key, tally := range seen {
		for _, kind := range plantedKinds {
			if tally[kind] == 0 {
				t.Errorf("%s: no %s breach was planted; the cases miss a fault kind", key, kind)
			}
		}
	}
}

// sameReport fails the test unless a front end's report equals the
// reference's: outcomes, peaks, and violations compared as sets.
func sameReport(t *testing.T, frontEnd string, got, want refReport) {
	t.Helper()
	if !slices.Equal(got.outcomes, want.outcomes) {
		t.Errorf("%s outcomes:\n got %v\nwant %v", frontEnd, got.outcomes, want.outcomes)
	}
	if got.maxBuffer != want.maxBuffer || got.maxLink != want.maxLink {
		t.Errorf("%s peaks (buffer, link) = (%d, %d), want (%d, %d)", frontEnd, got.maxBuffer, got.maxLink, want.maxBuffer, want.maxLink)
	}
	g, w := slices.Clone(got.violations), slices.Clone(want.violations)
	slices.Sort(g)
	slices.Sort(w)
	if !slices.Equal(g, w) {
		t.Errorf("%s violations:\n got %q\nwant %q", frontEnd, g, w)
	}
}
