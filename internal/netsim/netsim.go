// Package netsim is a cycle-accurate synchronous store-and-forward network
// simulator for uni-directional grids (Sec. 2.1 of Even–Medina).
//
// It supports the two node-functionality models compared in Appendix F:
//
//   - Model 1 (ARSU02, RR09; used by the paper): a combinational node may
//     cut a packet through from an incoming link to an outgoing link within
//     one cycle; only packets held across a cycle boundary occupy the B
//     buffer slots.
//   - Model 2 (AKK09, AZ05): every packet present at a node during a cycle
//     occupies a buffer slot, including packets forwarded in that cycle.
//
// Two execution modes exist: replaying explicit space-time schedules (the
// output of the paper's algorithms) with full capacity/buffer verification,
// and running local priority policies (greedy, nearest-to-go) step by step.
package netsim

import (
	"fmt"
	"sort"

	"gridroute/internal/dense"
	"gridroute/internal/grid"
	"gridroute/internal/spacetime"
)

// Model selects the node functionality (Appendix F).
type Model int

const (
	// Model1 allows cut-through: only held packets use buffer slots.
	Model1 Model = iota
	// Model2 charges a buffer slot to every packet present during a cycle.
	Model2
)

func (m Model) String() string {
	if m == Model2 {
		return "model2"
	}
	return "model1"
}

// OutcomeKind classifies what happened to a request.
type OutcomeKind int

const (
	// Unserved: the request was never injected (admission control rejected
	// it, or it never appeared in the executed schedule set).
	Unserved OutcomeKind = iota
	// Delivered: the packet reached its destination (check OnTime for the
	// deadline).
	Delivered
	// Dropped: the packet was injected and later preempted/dropped.
	Dropped
	// Stuck: the packet was still travelling when the horizon ended.
	Stuck
)

func (k OutcomeKind) String() string {
	switch k {
	case Delivered:
		return "delivered"
	case Dropped:
		return "dropped"
	case Stuck:
		return "stuck"
	default:
		return "unserved"
	}
}

// Outcome is the per-request result.
type Outcome struct {
	Kind        OutcomeKind
	DeliveredAt int64
	OnTime      bool
}

// Result aggregates a simulation run.
type Result struct {
	Name      string
	Outcomes  []Outcome
	Violation []string
	// MaxBuffer is the peak buffer occupancy observed at any node.
	MaxBuffer int
	// MaxLink is the peak per-edge link usage observed in any step.
	MaxLink int
}

// Throughput returns the number of requests delivered on time — the paper's
// objective |alg(σ)|.
func (r *Result) Throughput() int {
	n := 0
	for _, o := range r.Outcomes {
		if o.Kind == Delivered && o.OnTime {
			n++
		}
	}
	return n
}

// DeliveredCount returns deliveries ignoring deadlines.
func (r *Result) DeliveredCount() int {
	n := 0
	for _, o := range r.Outcomes {
		if o.Kind == Delivered {
			n++
		}
	}
	return n
}

// CountKind returns the number of outcomes of kind k.
func (r *Result) CountKind(k OutcomeKind) int {
	n := 0
	for _, o := range r.Outcomes {
		if o.Kind == k {
			n++
		}
	}
	return n
}

// ReplaySchedules executes explicit schedules under the given model,
// verifying every link-capacity and buffer constraint. schedules[i] may be
// nil for requests that were rejected. The returned result flags violations;
// a correct algorithm produces none.
func ReplaySchedules(g *grid.Grid, reqs []grid.Request, schedules []*spacetime.Schedule, model Model) *Result {
	res := &Result{}
	new(Incremental).ReplayInto(g, reqs, schedules, model, res)
	return res
}

// Incremental is the schedule replayer. It verifies schedules one at a time
// against a persistent occupancy state over a fixed time window, so the
// streaming engine's callers, which learn of accepted packets one admit at a
// time, and batch replay (ReplayInto, ReplaySchedules), which sizes the
// window from the whole set, share one walk. Link and buffer occupancy live
// in epoch-stamped flat arrays over the compact (node, axis, t) / (node, t)
// id space of the window, so a warm Incremental replays with no hashing and
// no allocation.
//
// Add records the per-schedule faults (a schedule that does not match its
// request, leaves the grid or falls outside the window) and tracks the peak
// occupancies. Capacity breaches are reported by Violations, one entry per
// over-capacity (resource, t) with its final count. The zero value is ready
// for ReplayInto; Add needs a window from NewIncremental. An Incremental is
// not safe for concurrent use.
type Incremental struct {
	g     *grid.Grid
	model Model
	minT  int64
	width int

	links dense.Counts
	bufs  dense.Counts
	pos   grid.Vec

	maxBuffer int
	maxLink   int
	// violations holds the faults Add recorded, then the capacity breaches
	// of the last Violations call; faults counts the former.
	violations []string
	faults     int
}

// NewIncremental creates an incremental verifier over the time window
// [minT, maxT] (inclusive). A schedule that starts before minT or ends after
// maxT is reported as a violation and not walked.
func NewIncremental(g *grid.Grid, model Model, minT, maxT int64) *Incremental {
	inc := &Incremental{g: g, model: model}
	inc.reset(minT, maxT)
	return inc
}

// reset rewinds the verifier to an empty occupancy state over a new window,
// reusing its buffers.
//
//gridroute:hotpath
func (inc *Incremental) reset(minT, maxT int64) {
	if maxT < minT {
		maxT = minT
	}
	inc.minT = minT
	inc.width = int(maxT-minT) + 1
	inc.links.Reset(inc.g.N() * inc.g.D() * inc.width)
	inc.bufs.Reset(inc.g.N() * inc.width)
	inc.maxBuffer, inc.maxLink = 0, 0
	inc.violations, inc.faults = inc.violations[:0], 0
}

// ReplayInto replays a whole schedule set into a caller-provided result,
// reusing its slices: it sizes the window from the schedules, resets the
// verifier over it, adds schedules[i] as reqs[i]'s schedule in order and
// reports. A warm (Incremental, Result) pair replays without allocating.
//
//gridroute:hotpath
func (inc *Incremental) ReplayInto(g *grid.Grid, reqs []grid.Request, schedules []*spacetime.Schedule, model Model, res *Result) {
	minT, maxT := int64(0), int64(0)
	first := true
	for _, s := range schedules {
		if s == nil {
			continue
		}
		if end := s.StartT + int64(len(s.Moves)); first || end > maxT {
			maxT = end
		}
		if first || s.StartT < minT {
			minT = s.StartT
		}
		first = false
	}
	inc.g, inc.model = g, model
	inc.reset(minT, maxT)

	if cap(res.Outcomes) < len(reqs) {
		res.Outcomes = make([]Outcome, len(reqs))
	}
	res.Outcomes = res.Outcomes[:len(reqs)]
	clear(res.Outcomes)
	for i, s := range schedules {
		res.Outcomes[i] = inc.Add(&reqs[i], s)
	}
	res.Violation = append(res.Violation[:0], inc.Violations()...)
	res.MaxBuffer, res.MaxLink = inc.maxBuffer, inc.maxLink
}

// Add replays one schedule on top of everything added so far and returns the
// packet's outcome. A nil schedule is unserved. A schedule that does not
// start at its request's source and arrival, or that falls outside the
// window, is recorded as a fault and not walked (unserved); one that leaves
// the grid is recorded and dropped where it leaves.
//
//gridroute:hotpath
func (inc *Incremental) Add(req *grid.Request, s *spacetime.Schedule) Outcome {
	if s == nil {
		return Outcome{}
	}
	if s.Req == nil || !s.Req.Src.Eq(req.Src) || s.Req.Arrival != req.Arrival || !s.Src.Eq(req.Src) || s.StartT != req.Arrival {
		inc.fault(fmt.Sprintf("req %d: schedule/request mismatch", req.ID)) //gridlint:allow violation reporting: runs only on malformed input, not per packet
		return Outcome{}
	}
	if end := s.StartT + int64(len(s.Moves)); s.StartT < inc.minT || end >= inc.minT+int64(inc.width) {
		inc.fault(fmt.Sprintf("req %d: schedule [%d,%d] outside replay window [%d,%d]", req.ID, s.StartT, end, inc.minT, inc.minT+int64(inc.width)-1)) //gridlint:allow violation reporting: runs only on schedules outside the window, not per packet
		return Outcome{}
	}
	g := inc.g
	d := g.D()
	pos := append(inc.pos[:0], s.Src...)
	inc.pos = pos
	t := s.StartT
	for _, m := range s.Moves {
		// Model 1 charges a buffer slot to a packet held across the cycle
		// boundary; Model 2 to every packet present that is not at its
		// destination, forwarded or not. Link accounting is
		// model-independent.
		node := g.Index(pos)
		if (inc.model == Model1 && m == spacetime.Hold) || (inc.model == Model2 && !pos.Eq(req.Dst)) {
			if n := inc.bufs.Add(node*inc.width+int(t-inc.minT), 1); n > inc.maxBuffer {
				inc.maxBuffer = n
			}
		}
		if m != spacetime.Hold {
			pos[m]++
			if pos[m] >= g.Dims[m] {
				inc.fault(fmt.Sprintf("req %d: leaves grid", req.ID)) //gridlint:allow violation reporting: runs only on malformed schedules, not per packet
				return Outcome{Kind: Dropped}
			}
			if n := inc.links.Add((node*d+int(m))*inc.width+int(t-inc.minT), 1); n > inc.maxLink {
				inc.maxLink = n
			}
		}
		t++
	}
	if pos.Eq(req.Dst) {
		onTime := req.Deadline == grid.InfDeadline || t <= req.Deadline
		return Outcome{Kind: Delivered, DeliveredAt: t, OnTime: onTime}
	}
	return Outcome{Kind: Dropped}
}

// fault records a per-schedule fault ahead of any capacity breaches a
// Violations call appended.
func (inc *Incremental) fault(msg string) {
	inc.violations = append(inc.violations[:inc.faults], msg)
	inc.faults++
}

// Violations returns every constraint violation of the schedules added so
// far: the faults Add recorded, then one entry per over-capacity (resource,
// t) with its final count, found by one scan of the touched counters. The
// slice is owned by the verifier and valid until its next Add or Violations
// call.
//
//gridroute:hotpath
func (inc *Incremental) Violations() []string {
	g, d, w := inc.g, inc.g.D(), inc.width
	v := inc.violations[:inc.faults]
	// The peaks bound every counter, so a feasible set skips the scans.
	if inc.maxLink > g.C {
		for _, li := range inc.links.Touched() {
			if n := inc.links.Get(int(li)); n > g.C {
				id := int(li)
				t := inc.minT + int64(id%w)
				id /= w
				v = append(v, fmt.Sprintf("link capacity exceeded: node %d axis %d t=%d: %d > %d", id/d, id%d, t, n, g.C)) //gridlint:allow violation reporting: runs only on capacity breaches, not per packet
			}
		}
	}
	if inc.maxBuffer > g.B {
		for _, bi := range inc.bufs.Touched() {
			if n := inc.bufs.Get(int(bi)); n > g.B {
				id := int(bi)
				v = append(v, fmt.Sprintf("buffer exceeded: node %d t=%d: %d > %d", id/w, inc.minT+int64(id%w), n, g.B)) //gridlint:allow violation reporting: runs only on buffer breaches, not per packet
			}
		}
	}
	inc.violations = v
	return v
}

// Packet is a live packet in the policy engine.
type Packet struct {
	Req *grid.Request
	Idx int
	Pos grid.Vec
	// InjectedAt is the time the packet entered the network.
	InjectedAt int64
}

// Policy drives local (distributed) algorithms such as greedy and
// nearest-to-go.
type Policy interface {
	Name() string
	// Priority orders packets at a node; smaller values are served first
	// (forwarded before others, retained in buffers before others).
	Priority(p *Packet, now int64) int64
	// NextAxis picks the outgoing axis for a packet (it must satisfy
	// Pos[axis] < Dst[axis]); it is only called when Pos ≠ Dst.
	NextAxis(g *grid.Grid, p *Packet) int
}

// RunLocal executes a local policy step by step until horizon (inclusive).
// Injection is greedy: every arriving packet enters the fray and competes
// for link and buffer space under the policy's priority; losers are dropped
// (the behaviour whose competitive ratio Table 1 lower-bounds).
func RunLocal(g *grid.Grid, reqs []grid.Request, pol Policy, model Model, horizon int64) *Result {
	res := &Result{Name: pol.Name(), Outcomes: make([]Outcome, len(reqs))}

	// Arrivals grouped by time.
	arrivals := make(map[int64][]int)
	for i := range reqs {
		arrivals[reqs[i].Arrival] = append(arrivals[reqs[i].Arrival], i)
	}

	atNode := make(map[int][]*Packet)
	var moved []*Packet

	for t := int64(0); t <= horizon; t++ {
		// 1. Inject arrivals.
		for _, idx := range arrivals[t] {
			r := &reqs[idx]
			p := &Packet{Req: r, Idx: idx, Pos: r.Src.Clone(), InjectedAt: t}
			nid := g.Index(p.Pos)
			atNode[nid] = append(atNode[nid], p)
		}
		// 2-4. Per-node processing.
		moved = moved[:0]
		for nid, pkts := range atNode {
			if len(pkts) == 0 {
				continue
			}
			// Deliveries first: packets at their destination leave the
			// network and use no resources.
			keep := pkts[:0]
			for _, p := range pkts {
				if p.Pos.Eq(p.Req.Dst) {
					onTime := p.Req.Deadline == grid.InfDeadline || t <= p.Req.Deadline
					res.Outcomes[p.Idx] = Outcome{Kind: Delivered, DeliveredAt: t, OnTime: onTime}
				} else {
					keep = append(keep, p)
				}
			}
			pkts = keep

			sort.SliceStable(pkts, func(a, b int) bool {
				return pol.Priority(pkts[a], t) < pol.Priority(pkts[b], t)
			})

			// Model 2: every packet present needs a buffer slot before any
			// forwarding happens.
			if model == Model2 && len(pkts) > g.B {
				for _, p := range pkts[g.B:] {
					res.Outcomes[p.Idx] = Outcome{Kind: Dropped}
				}
				pkts = pkts[:g.B]
			}
			// Forward up to C per outgoing axis, in priority order.
			used := make([]int, g.D())
			stay := pkts[:0]
			for _, p := range pkts {
				a := pol.NextAxis(g, p)
				if a >= 0 && a < g.D() && p.Pos[a] < p.Req.Dst[a] && used[a] < g.C {
					used[a]++
					p.Pos[a]++
					moved = append(moved, p)
				} else {
					stay = append(stay, p)
				}
			}
			// Buffer retention: best B stay, rest dropped.
			if len(stay) > g.B {
				for _, p := range stay[g.B:] {
					res.Outcomes[p.Idx] = Outcome{Kind: Dropped}
				}
				stay = stay[:g.B]
			}
			if len(stay) > res.MaxBuffer {
				res.MaxBuffer = len(stay)
			}
			if len(stay) == 0 {
				delete(atNode, nid)
			} else {
				buf := make([]*Packet, len(stay))
				copy(buf, stay)
				atNode[nid] = buf
			}
		}
		// 5. Arrivals land at their new nodes for step t+1.
		for _, p := range moved {
			nid := g.Index(p.Pos)
			atNode[nid] = append(atNode[nid], p)
		}
	}

	// Anything still in flight is stuck.
	for _, pkts := range atNode {
		for _, p := range pkts {
			if res.Outcomes[p.Idx].Kind == Unserved {
				res.Outcomes[p.Idx] = Outcome{Kind: Stuck}
			}
		}
	}
	return res
}
