// Package fault is a seeded, deterministic fault-injection harness for the
// streaming admission stack.
//
// A Schedule is a list of fault events keyed on packet sequence numbers (for
// producer/consumer faults) or on real arrival time (for space-time resource
// outages). Because every trigger is keyed on the deterministic packet stream
// rather than on wall-clock time or submission interleaving, a chaos run
// produces the same fault pattern — and, for faults that do not change
// admission semantics (stalls, storms, pauses, panics, cancellations), the
// same decision log — on every execution, which makes chaos runs CI-gateable
// exactly like the rest of the repo.
//
// # Schedule DSL
//
// A schedule is a semicolon-separated list of events, each `op(key=val,...)`:
//
//	stall(seq=120,n=8,dur=2ms)      producer sleeps dur before submitting seqs [120,128)
//	panic(seq=300)                  producer panics once before submitting seq 300
//	cancel(seq=500,n=5)             first Admit of seqs [500,505) runs under a cancelled ctx
//	storm(seq=200,n=50,count=3)     first 3 Admit attempts of seqs [200,250) bounce RejectedQueueFull
//	pause(seq=400,n=10,dur=1ms)     consumer sleeps dur before deciding seqs [400,410)
//	outage(node=3/4,axis=0,t=10-40) sketch edge (axis 0) out of tile of node (3,4), real time [10,40)
//	outage(node=5,t=20-30)          whole tile of node (5) out (node outage)
//
// `n` defaults to 1; `count` defaults to 1; `axis` defaults to -1 (node
// outage; axis d, the buffer axis, addresses hold edges). Outages mask
// resources at sketch granularity: the tile containing the named grid node.
//
// String renders the canonical form of a schedule; Parse(String()) is the
// identity on normalized schedules (fuzz-gated).
//
//gridroute:seqclock
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Op enumerates fault event kinds.
type Op uint8

const (
	// Stall sleeps the producer before it submits a covered seq.
	Stall Op = iota
	// Panic makes the producer panic once before submitting a covered seq.
	Panic
	// Cancel makes the first Admit of a covered seq run under an
	// already-cancelled context.
	Cancel
	// Storm bounces the first Count Admit attempts of each covered seq with
	// RejectedQueueFull, simulating a full queue.
	Storm
	// Pause sleeps the consumer loop before it decides a covered seq.
	Pause
	// Outage takes a space-time resource (a tile's axis edge, hold edge, or
	// the whole tile) out of service for a real-time interval.
	Outage
)

var opNames = [...]string{"stall", "panic", "cancel", "storm", "pause", "outage"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Event is one fault in a schedule. Which fields are meaningful depends on Op
// (see the package comment for the DSL).
type Event struct {
	Op    Op
	Seq   int           // first covered sequence number (seq-keyed ops)
	N     int           // number of consecutive seqs covered; >= 1
	Count int           // Storm: bounced attempts per covered seq; >= 1
	Dur   time.Duration // Stall/Pause: sleep duration
	Node  []int         // Outage: grid coordinates of the failed node
	Axis  int           // Outage: edge axis, or -1 for a node outage
	From  int64         // Outage: first failed real time step (inclusive)
	To    int64         // Outage: end of the failed interval (exclusive)
}

func (ev Event) covers(seq int) bool { return seq >= ev.Seq && seq < ev.Seq+ev.N }

// String renders the event in canonical DSL form.
func (ev Event) String() string {
	var b strings.Builder
	b.WriteString(ev.Op.String())
	b.WriteByte('(')
	if ev.Op == Outage {
		b.WriteString("node=")
		for i, c := range ev.Node {
			if i > 0 {
				b.WriteByte('/')
			}
			b.WriteString(strconv.Itoa(c))
		}
		if ev.Axis >= 0 {
			fmt.Fprintf(&b, ",axis=%d", ev.Axis)
		}
		fmt.Fprintf(&b, ",t=%d-%d", ev.From, ev.To)
	} else {
		fmt.Fprintf(&b, "seq=%d", ev.Seq)
		if ev.N > 1 {
			fmt.Fprintf(&b, ",n=%d", ev.N)
		}
		if ev.Op == Storm && ev.Count > 1 {
			fmt.Fprintf(&b, ",count=%d", ev.Count)
		}
		if (ev.Op == Stall || ev.Op == Pause) && ev.Dur > 0 {
			fmt.Fprintf(&b, ",dur=%s", ev.Dur)
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Schedule is an ordered list of fault events.
type Schedule struct {
	Events []Event
}

// String renders the canonical DSL form; Parse round-trips it.
func (s *Schedule) String() string {
	if s == nil || len(s.Events) == 0 {
		return ""
	}
	parts := make([]string, len(s.Events))
	for i, ev := range s.Events {
		parts[i] = ev.String()
	}
	return strings.Join(parts, ";")
}

// Parse parses the schedule DSL described in the package comment. Events are
// validated and normalized (defaults filled in); the empty string yields an
// empty schedule.
func Parse(spec string) (*Schedule, error) {
	s := &Schedule{}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return s, nil
	}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ev, err := parseEvent(part)
		if err != nil {
			return nil, err
		}
		s.Events = append(s.Events, ev)
	}
	return s, nil
}

func parseEvent(part string) (Event, error) {
	open := strings.IndexByte(part, '(')
	if open < 0 || !strings.HasSuffix(part, ")") {
		return Event{}, fmt.Errorf("fault: event %q: want op(key=val,...)", part)
	}
	name := strings.TrimSpace(part[:open])
	op := -1
	for i, n := range opNames {
		if n == name {
			op = i
			break
		}
	}
	if op < 0 {
		return Event{}, fmt.Errorf("fault: unknown op %q", name)
	}
	ev := Event{Op: Op(op), N: 1, Count: 1, Axis: -1}
	body := part[open+1 : len(part)-1]
	var haveSeq, haveNode, haveT bool
	for _, field := range strings.Split(body, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Event{}, fmt.Errorf("fault: event %q: field %q is not key=val", part, field)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "seq":
			ev.Seq, err = strconv.Atoi(val)
			haveSeq = true
		case "n":
			ev.N, err = strconv.Atoi(val)
		case "count":
			ev.Count, err = strconv.Atoi(val)
		case "dur":
			ev.Dur, err = time.ParseDuration(val)
		case "axis":
			ev.Axis, err = strconv.Atoi(val)
		case "node":
			haveNode = true
			for _, c := range strings.Split(val, "/") {
				v, cerr := strconv.Atoi(c)
				if cerr != nil {
					err = cerr
					break
				}
				ev.Node = append(ev.Node, v)
			}
		case "t":
			lo, hi, cut := strings.Cut(val, "-")
			if !cut {
				return Event{}, fmt.Errorf("fault: event %q: t=%q wants from-to", part, val)
			}
			haveT = true
			if ev.From, err = strconv.ParseInt(lo, 10, 64); err == nil {
				ev.To, err = strconv.ParseInt(hi, 10, 64)
			}
		default:
			return Event{}, fmt.Errorf("fault: event %q: unknown key %q", part, key)
		}
		if err != nil {
			return Event{}, fmt.Errorf("fault: event %q: bad %s: %v", part, key, err)
		}
	}
	if ev.Op == Outage {
		if !haveNode || len(ev.Node) == 0 {
			return Event{}, fmt.Errorf("fault: event %q: outage needs node=", part)
		}
		if !haveT || ev.From < 0 || ev.To <= ev.From {
			return Event{}, fmt.Errorf("fault: event %q: outage needs t=from-to with 0 <= from < to", part)
		}
		if ev.Axis < -1 {
			return Event{}, fmt.Errorf("fault: event %q: axis must be >= 0 (or omitted)", part)
		}
	} else {
		if !haveSeq || ev.Seq < 0 {
			return Event{}, fmt.Errorf("fault: event %q: needs seq >= 0", part)
		}
		if ev.N < 1 {
			return Event{}, fmt.Errorf("fault: event %q: n must be >= 1", part)
		}
		if ev.Count < 1 {
			return Event{}, fmt.Errorf("fault: event %q: count must be >= 1", part)
		}
		if ev.Dur < 0 {
			return Event{}, fmt.Errorf("fault: event %q: dur must be >= 0", part)
		}
		if (ev.Op == Stall || ev.Op == Pause) && ev.Dur == 0 {
			return Event{}, fmt.Errorf("fault: event %q: needs dur > 0", part)
		}
	}
	return ev, nil
}

// Rand generates a reproducible schedule from a seed: a handful of stalls,
// storms, pauses, a panic, a cancellation burst, and one outage, all placed
// inside [0, maxSeq) / [0, horizon). Same seed, same schedule.
func Rand(seed int64, maxSeq int, horizon int64, dims []int) *Schedule {
	rng := rand.New(rand.NewSource(seed))
	if maxSeq < 16 {
		maxSeq = 16
	}
	pick := func(span int) int { return rng.Intn(maxSeq - span) }
	s := &Schedule{}
	s.Events = append(s.Events,
		Event{Op: Stall, Seq: pick(4), N: 1 + rng.Intn(4), Count: 1, Dur: time.Duration(1+rng.Intn(3)) * time.Millisecond, Axis: -1},
		Event{Op: Storm, Seq: pick(8), N: 1 + rng.Intn(8), Count: 1 + rng.Intn(3), Axis: -1},
		Event{Op: Pause, Seq: pick(4), N: 1 + rng.Intn(4), Count: 1, Dur: time.Duration(1+rng.Intn(2)) * time.Millisecond, Axis: -1},
		Event{Op: Panic, Seq: pick(1), N: 1, Count: 1, Axis: -1},
		Event{Op: Cancel, Seq: pick(4), N: 1 + rng.Intn(4), Count: 1, Axis: -1},
	)
	if horizon > 2 && len(dims) > 0 {
		node := make([]int, len(dims))
		for i, d := range dims {
			if d > 0 {
				node[i] = rng.Intn(d)
			}
		}
		from := int64(rng.Intn(int(horizon - 1)))
		to := from + 1 + int64(rng.Intn(int(horizon-from)))
		axis := rng.Intn(len(dims)+2) - 1 // -1 (node) .. d (hold edge)
		s.Events = append(s.Events, Event{Op: Outage, Node: node, Axis: axis, From: from, To: to, N: 1, Count: 1})
	}
	return s
}

// Injector evaluates a schedule at run time. Read-only queries (StallBefore,
// PauseBefore, outage queries) are lock-free and safe for any concurrency;
// one-shot and counted triggers (PanicAt, CancelFirst, StormBounce) keep
// per-seq state under a mutex and are deterministic as long as each seq is
// submitted by a single producer (the repo-wide convention).
type Injector struct {
	events  []Event
	outages []Event
	bounds  []int64 // sorted unique outage boundaries (From and To values)

	hasStall, hasPause, hasStorm, hasPanic, hasCancel bool

	mu        sync.Mutex
	stormLeft map[int]int
	fired     map[int]bool // one-shot panic triggers by seq
	cancelled map[int]bool // one-shot cancel triggers by seq
}

// NewInjector builds an Injector for the schedule. A nil or empty schedule
// yields an injector whose every hook is a no-op.
func NewInjector(s *Schedule) *Injector {
	in := &Injector{
		stormLeft: make(map[int]int),
		fired:     make(map[int]bool),
		cancelled: make(map[int]bool),
	}
	if s == nil {
		return in
	}
	in.events = s.Events
	seen := make(map[int64]bool)
	for _, ev := range s.Events {
		switch ev.Op {
		case Stall:
			in.hasStall = true
		case Pause:
			in.hasPause = true
		case Storm:
			in.hasStorm = true
		case Panic:
			in.hasPanic = true
		case Cancel:
			in.hasCancel = true
		case Outage:
			in.outages = append(in.outages, ev)
			for _, b := range []int64{ev.From, ev.To} {
				if !seen[b] {
					seen[b] = true
					in.bounds = append(in.bounds, b)
				}
			}
		}
	}
	sort.Slice(in.bounds, func(i, j int) bool { return in.bounds[i] < in.bounds[j] })
	return in
}

// StallBefore returns how long the producer should sleep before submitting
// seq (the longest matching stall event; 0 if none).
func (in *Injector) StallBefore(seq int) time.Duration {
	if in == nil || !in.hasStall {
		return 0
	}
	var d time.Duration
	for _, ev := range in.events {
		if ev.Op == Stall && ev.covers(seq) && ev.Dur > d {
			d = ev.Dur
		}
	}
	return d
}

// PauseBefore returns how long the consumer should sleep before deciding seq.
func (in *Injector) PauseBefore(seq int) time.Duration {
	if in == nil || !in.hasPause {
		return 0
	}
	var d time.Duration
	for _, ev := range in.events {
		if ev.Op == Pause && ev.covers(seq) && ev.Dur > d {
			d = ev.Dur
		}
	}
	return d
}

// PanicAt reports whether the producer should panic before submitting seq.
// Fires at most once per seq, so a recovered producer can resubmit.
func (in *Injector) PanicAt(seq int) bool {
	if in == nil || !in.hasPanic {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.fired[seq] {
		return false
	}
	for _, ev := range in.events {
		if ev.Op == Panic && ev.covers(seq) {
			in.fired[seq] = true
			return true
		}
	}
	return false
}

// CancelFirst reports whether the first Admit of seq should run under an
// already-cancelled context. Fires at most once per seq.
func (in *Injector) CancelFirst(seq int) bool {
	if in == nil || !in.hasCancel {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.cancelled[seq] {
		return false
	}
	for _, ev := range in.events {
		if ev.Op == Cancel && ev.covers(seq) {
			in.cancelled[seq] = true
			return true
		}
	}
	return false
}

// StormBounce reports whether this Admit attempt of seq should bounce with a
// simulated full queue. The first `count` attempts of each covered seq bounce
// (counts of overlapping storm events add up); later attempts pass. Because
// the counter is per-seq, the set of bounced (seq, attempt) pairs — and hence
// the final decision log once producers retry — is independent of producer
// interleaving.
func (in *Injector) StormBounce(seq int) bool {
	if in == nil || !in.hasStorm {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	left, ok := in.stormLeft[seq]
	if !ok {
		for _, ev := range in.events {
			if ev.Op == Storm && ev.covers(seq) {
				left += ev.Count
			}
		}
	}
	if left <= 0 {
		in.stormLeft[seq] = 0
		return false
	}
	in.stormLeft[seq] = left - 1
	return true
}

// HasOutages reports whether the schedule contains outage events.
func (in *Injector) HasOutages() bool { return in != nil && len(in.outages) > 0 }

// OutageEpoch maps an arrival time to an epoch index that changes exactly
// when the set of active outages changes. Engines cache mask state per epoch.
func (in *Injector) OutageEpoch(arrival int64) int {
	if in == nil {
		return 0
	}
	return sort.Search(len(in.bounds), func(i int) bool { return in.bounds[i] > arrival })
}

// ActiveOutages appends the outage events covering arrival to buf.
func (in *Injector) ActiveOutages(arrival int64, buf []Event) []Event {
	if in == nil {
		return buf
	}
	for _, ev := range in.outages {
		if arrival >= ev.From && arrival < ev.To {
			buf = append(buf, ev)
		}
	}
	return buf
}
