package engine

import (
	"context"
	"errors"
	"sync"

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
// and pass no ExpectPackets. A batch run's arena lives in a pooled
// workspace, and reset keeps the newest chunk of each kind for the next run
// to refill, so once a sweep's runs have grown the chunks they allocate
// nothing here. A caller that sets Options.ExpectPackets gets
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

// reset empties the arena for another run. It keeps the current chunk of
// each kind, the newest and largest, and the sizes the next chunks grew to;
// the packets of the run before are overwritten as the chunks refill.
func (a *arena) reset() {
	a.reqs, a.routes = a.reqs[:0], a.routes[:0]
	a.ints, a.axes = a.ints[:0], a.axes[:0]
}

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

// workspace is the memory a run works in and no caller keeps: the
// accepted-packet arena, the admitted list and a detailed router whose slabs
// grow only. A streaming engine owns one. Run draws one from workspaces and
// Result.Release hands it back, so that a sweep of batch runs, which route
// one instance after another, reuses it instead of allocating it afresh.
type workspace struct {
	arena    arena
	admitted []detroute.Admitted
	router   detroute.Router
}

// workspaces pools the workspaces of batch runs.
var workspaces = sync.Pool{New: func() any { return newWorkspace(0) }}

// newWorkspace returns an empty workspace whose arena and admitted list are
// sized for hint packets (see Options.ExpectPackets).
func newWorkspace(hint int) *workspace {
	ws := new(workspace)
	ws.arena.init(hint)
	if hint > 0 {
		ws.admitted = make([]detroute.Admitted, 0, hint)
	}
	return ws
}

// reset empties ws for another run and keeps its memory. The router drops
// its geometry, so a pooled workspace keeps no run's space-time graph or
// sketch alive.
func (ws *workspace) reset() {
	ws.arena.reset()
	ws.admitted = ws.admitted[:0]
	ws.router.ST, ws.router.SK = nil, nil
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
// certificates. A result of Run holds a pooled workspace until Release.
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

	// ws is the pooled workspace of a Run result, nil once released and for
	// a streaming engine's result.
	ws *workspace
}

// Release hands a Run result's workspace back to the pool for the next Run
// to reuse, and nils Admitted, Outcomes and Schedules: the first two, and
// the Req of every schedule, point into memory the next Run overwrites. The
// schedules themselves are fresh memory, so a caller may keep one taken
// before Release once it re-points its Req, as core.RunDeterministic does.
// Release does nothing on a released result or on a streaming engine's,
// which Finish returns again on every call.
func (r *Result) Release() {
	ws := r.ws
	if ws == nil {
		return
	}
	r.ws, r.Admitted, r.Outcomes, r.Schedules = nil, nil, nil, nil
	ws.reset()
	workspaces.Put(ws)
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
	admitted := e.ws.admitted
	res := &Result{
		Grid: e.g, Horizon: e.horizon, PMax: e.pmax, K: e.k,
		Admitted:    admitted,
		MaxLoad:     e.pk.MaxLoad(),
		LoadBound:   e.pk.LoadBound(),
		PrimalValue: e.pk.PrimalValue(),
		Decisions:   e.decisions,
		Stats:       e.Stats(),
	}
	router := &e.ws.router
	router.ST, router.SK = e.st, e.sk
	res.Outcomes, res.RouteStats = router.Run(admitted)
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
	// The on-time schedules are cut from one fresh slab sized for all of
	// them, never from the workspace: a caller keeps them past Release.
	res.Schedules = make([]*spacetime.Schedule, len(admitted))
	sl := e.st.NewSlab(res.Throughput, moves)
	for j := range res.Outcomes {
		if o := &res.Outcomes[j]; o.Delivered && o.OnTime {
			res.Schedules[j] = sl.Cut(admitted[j].Req, o.Path)
		}
	}
	e.result = res
}
