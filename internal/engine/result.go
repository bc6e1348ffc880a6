package engine

import (
	"context"
	"errors"

	"gridroute/internal/detroute"
	"gridroute/internal/grid"
	"gridroute/internal/sketch"
	"gridroute/internal/spacetime"
)

// arena is chunked, pointer-stable storage for accepted packets. Requests
// and routes live in fixed-capacity chunks that are never reallocated, so
// the *grid.Request and *sketch.Route handed to detailed routing stay valid
// as more packets are accepted; coordinate and axis payloads are sub-sliced
// (with full-slice expressions, so appends cannot bleed across entries)
// from shared backing chunks. Steady-state cost is one allocation per
// chunk, amortized to ~0 per accept.
//
// Chunks start small and double up to maxReqChunk requests, maxIntChunk
// ints and maxAxChunk axes, so a run allocates for what it admits, not for
// what it is offered: batch runs (Run) admit a fraction of their requests
// and pass no ExpectPackets. A caller that sets Options.ExpectPackets gets
// full-size chunks from the start, the first request/route chunk sized to
// cover the workload outright, and pays their page faults in New rather
// than in the timed admits (see ExpectPackets).
type arena struct {
	reqs   []grid.Request
	routes []sketch.Route
	ints   []int
	axes   []uint8

	// Sizes of the next chunk of each kind.
	reqChunk, intChunk, axChunk int
}

const (
	maxReqChunk = 1 << 10
	maxIntChunk = 1 << 14
	maxAxChunk  = 1 << 13
	// The first chunks hold 1/64 of the largest.
	growSteps = 6
)

func (a *arena) init(hint int) {
	if hint <= 0 {
		a.reqChunk = maxReqChunk >> growSteps
		a.intChunk = maxIntChunk >> growSteps
		a.axChunk = maxAxChunk >> growSteps
		return
	}
	a.reqChunk, a.intChunk, a.axChunk = max(hint, maxReqChunk), maxIntChunk, maxAxChunk
	a.reqs = make([]grid.Request, 0, a.reqChunk)
	a.routes = make([]sketch.Route, 0, a.reqChunk)
}

// chunk returns the size of a new chunk that must hold at least n items
// and doubles the next one's, up to limit.
func chunk(next *int, n, limit int) int {
	c := *next
	if c < limit {
		*next = min(2*c, limit)
	}
	return max(c, n)
}

func (a *arena) allocInts(n int) []int {
	if len(a.ints)+n > cap(a.ints) {
		a.ints = make([]int, 0, chunk(&a.intChunk, n, maxIntChunk))
	}
	off := len(a.ints)
	a.ints = a.ints[:off+n]
	return a.ints[off : off+n : off+n]
}

func (a *arena) allocAxes(n int) []uint8 {
	if len(a.axes)+n > cap(a.axes) {
		a.axes = make([]uint8, 0, chunk(&a.axChunk, n, maxAxChunk))
	}
	off := len(a.axes)
	a.axes = a.axes[:off+n]
	return a.axes[off : off+n : off+n]
}

// retain deep-copies an accepted (request, route) pair into the arena and
// returns the detroute admission entry pointing at the stable copies. The
// copy keeps the route's tiles, axes and cost but no edge list: nothing
// reads a retained route's edges (detailed routing walks tiles and axes,
// the WAL logs the start tile and axes, and Recover rebuilds edges from
// those).
func (a *arena) retain(r *grid.Request, rt *sketch.Route) detroute.Admitted {
	if len(a.reqs) == cap(a.reqs) {
		// Requests and routes fill in step, one of each per retain.
		c := chunk(&a.reqChunk, 1, maxReqChunk)
		a.reqs = make([]grid.Request, 0, c)
		a.routes = make([]sketch.Route, 0, c)
	}
	a.reqs = a.reqs[:len(a.reqs)+1]
	req := &a.reqs[len(a.reqs)-1]
	*req = *r
	req.Src = a.allocInts(len(r.Src))
	copy(req.Src, r.Src)
	req.Dst = a.allocInts(len(r.Dst))
	copy(req.Dst, r.Dst)

	a.routes = a.routes[:len(a.routes)+1]
	ro := &a.routes[len(a.routes)-1]
	ro.Tiles = a.allocInts(len(rt.Tiles))
	copy(ro.Tiles, rt.Tiles)
	ro.Axes = a.allocAxes(len(rt.Axes))
	copy(ro.Axes, rt.Axes)
	ro.Cost = rt.Cost

	return detroute.Admitted{Req: req, Route: ro}
}

// Drain closes the engine to new admissions, waits for the queue (and, in
// InOrder mode, any parked packets) to be fully decided, and returns when
// the consumer loop has exited. Subsequent Admit calls return ErrClosed;
// Drain itself is idempotent. On ctx cancellation the loop keeps draining in
// the background — only the wait is abandoned.
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	if !e.shut {
		e.shut = true
		close(e.in)
	}
	e.mu.Unlock()
	select {
	case <-e.done:
		// Every WAL writer is gone: an inline decide holds the read lock,
		// so it ended before the write lock above was taken, and the loop
		// has exited (loop exit happens-before the done close). The log can
		// be flushed and closed here. A clean Drain leaves a fully-synced
		// log with no torn tail.
		e.mu.Lock()
		if e.wal != nil {
			if err := e.wal.Close(); err != nil {
				e.setErr(err)
			}
			e.wal = nil
		}
		e.mu.Unlock()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Result is the routed outcome of a drained engine or of Run: the admitted
// set in admission order, the detailed-routing outcome and (for on-time
// deliveries) the explicit schedule of each, plus the packer's Theorem 1
// certificates.
type Result struct {
	Grid    *grid.Grid
	Horizon int64
	PMax    int
	K       int

	// Admitted is the injected set in admission order; Outcomes and
	// Schedules are parallel to it. Schedules[j] is non-nil exactly for
	// on-time deliveries. The Req pointers are engine-owned copies whose ID
	// carries the packet Seq. The Route pointers carry tiles, axes and cost
	// but no edge list (Route.Edges is nil).
	Admitted  []detroute.Admitted
	Outcomes  []detroute.Outcome
	Schedules []*spacetime.Schedule

	RouteStats detroute.Stats
	// Throughput counts on-time deliveries (|alg| in Sec. 5.3 notation);
	// ReachedLastTile is |ipp′| (Prop. 8).
	Throughput      int
	ReachedLastTile int

	MaxLoad     float64
	LoadBound   float64
	PrimalValue float64

	// Decisions is the decision log in decision order, when
	// Options.RecordDecisions was set.
	Decisions []Decision

	// Stats is the final counter snapshot.
	Stats Stats
}

// ErrNotDrained is returned by Finish before Drain has completed.
var ErrNotDrained = errors.New("engine: Finish requires a completed Drain")

// Finish runs detailed routing (detroute tracks 1–3) over the admitted set
// and returns the full result. It may only be called after Drain has
// returned nil; it is idempotent and returns the same Result on every call.
func (e *Engine) Finish() (*Result, error) {
	select {
	case <-e.done:
	default:
		return nil, ErrNotDrained
	}
	e.finishOnce.Do(e.finish)
	return e.result, nil
}

func (e *Engine) finish() {
	res := &Result{
		Grid: e.g, Horizon: e.horizon, PMax: e.pmax, K: e.k,
		Admitted:    e.admitted,
		MaxLoad:     e.pk.MaxLoad(),
		LoadBound:   e.pk.LoadBound(),
		PrimalValue: e.pk.PrimalValue(),
		Decisions:   e.decisions,
		Stats:       e.Stats(),
	}
	router := detroute.New(e.st, e.sk)
	res.Outcomes, res.RouteStats = router.Run(e.admitted)
	moves := 0
	for j := range res.Outcomes {
		o := &res.Outcomes[j]
		if o.ReachedLastTile {
			res.ReachedLastTile++
		}
		if o.Delivered && o.OnTime {
			res.Throughput++
			moves += len(o.Path.Axes)
		}
	}
	// The on-time schedules are cut from one slab sized for all of them.
	res.Schedules = make([]*spacetime.Schedule, len(e.admitted))
	sl := e.st.NewSlab(res.Throughput, moves)
	for j := range res.Outcomes {
		if o := &res.Outcomes[j]; o.Delivered && o.OnTime {
			res.Schedules[j] = sl.Cut(e.admitted[j].Req, o.Path)
		}
	}
	e.result = res
}
