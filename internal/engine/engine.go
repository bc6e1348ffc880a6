// Package engine hosts the streaming admission core of the deterministic
// algorithm (Sec. 4–6 of Even–Medina): a long-lived Engine owns one warm
// space-time sketch and one dense integral-path-packing state and admits
// packets one at a time, in arrival order, as they are submitted — no
// spacetime, sketch or tiling state is rebuilt between admits.
//
// The Engine is the online counterpart of core.RunDeterministic's batch
// loop, and the batch runner is now expressed over it: streaming a request
// sequence through Admit issues exactly the same LightestRoute/Offer call
// sequence as the old in-line loop, so batch results are byte-identical.
// What the Engine adds is a concurrency boundary: any number of producer
// goroutines may call Admit concurrently; a single consumer goroutine owns
// the mutable routing state and decides packets strictly one at a time.
//
// Backpressure is real, not simulated: the admission queue is a bounded
// channel sized by Options.Queue, and a packet arriving at a full queue is
// rejected immediately with RejectedQueueFull — the streaming analogue of
// the paper's bounded buffers (a router with full ingress buffers drops).
//
// The warm admit path is allocation-free in steady state: the sketch query
// session, the DP path, the route scratch and the per-packet envelopes are
// all reused, and accepted packets are retained in chunked, pointer-stable
// arenas (see alloc_test.go's gate at the repository root).
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridroute/internal/detroute"
	"gridroute/internal/engine/wal"
	"gridroute/internal/fault"
	"gridroute/internal/grid"
	"gridroute/internal/ipp"
	"gridroute/internal/sketch"
	"gridroute/internal/spacetime"
	"gridroute/internal/tiling"
)

// Verdict classifies an admission decision.
type Verdict uint8

const (
	// Accepted: the packer assigned a sketch route; the packet was injected.
	Accepted Verdict = iota
	// RejectedCost: a lightest route exists but its weight α(p) ≥ 1
	// (the Buchbinder–Naor admission threshold).
	RejectedCost
	// RejectedNoRoute: no legal sketch route (destination ray empty or
	// unreachable within pmax tiles).
	RejectedNoRoute
	// RejectedInvalid: the packet is infeasible on the grid or violates the
	// engine's arrival-order watermark. Invalid packets never touch the
	// packer.
	RejectedInvalid
	// RejectedQueueFull: the bounded admission queue was full at submission
	// time (backpressure). Queue-full packets never reach the consumer loop
	// and are absent from the decision log.
	RejectedQueueFull
	// Shed: the overload-degradation policy (Options.Shed) dropped the
	// packet — deadline-aware early shedding or adaptive threshold
	// tightening under sustained queue pressure. Shed packets reach the
	// consumer loop (so they appear in the decision log and advance the
	// arrival watermark) but never mutate the packer's weights.
	Shed
)

func (v Verdict) String() string {
	switch v {
	case Accepted:
		return "accepted"
	case RejectedCost:
		return "rejected-cost"
	case RejectedNoRoute:
		return "rejected-no-route"
	case RejectedInvalid:
		return "rejected-invalid"
	case RejectedQueueFull:
		return "rejected-queue-full"
	case Shed:
		return "shed"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

// Packet is one admission attempt. Seq is the packet's position in the
// online order: in InOrder mode every sequence number from FirstSeq upward
// must be submitted exactly once, and decisions are made in Seq order
// regardless of producer interleaving. Src and Dst are copied at submission
// time, so the caller may reuse the backing slices as soon as Admit returns.
// Deadline uses the grid.Request convention: grid.InfDeadline means none.
type Packet struct {
	Seq      int
	Src      grid.Vec
	Dst      grid.Vec
	Arrival  int64
	Deadline int64
}

// PacketOf converts a request into its packet form, with Seq = r.ID.
func PacketOf(r *grid.Request) Packet {
	return Packet{Seq: r.ID, Src: r.Src, Dst: r.Dst, Arrival: r.Arrival, Deadline: r.Deadline}
}

// Decision is the engine's verdict on one packet.
type Decision struct {
	Seq     int
	Verdict Verdict
	// Cost is the weight α(p) of the lightest sketch route at decision time
	// (meaningful for Accepted and RejectedCost).
	Cost float64
	// Tiles is the number of tiles of the assigned route (Accepted only).
	Tiles int
	// Wait is the wall-clock latency from submission to decision. It is the
	// only non-deterministic Decision field: determinism tests compare
	// decisions with Wait stripped.
	Wait time.Duration
}

// Admitted reports whether the packet was injected.
func (d Decision) Admitted() bool { return d.Verdict == Accepted }

// Options configures an Engine.
type Options struct {
	// Horizon is the last simulated time step. It must be positive: a
	// streaming engine cannot derive a horizon from a workload it has not
	// seen (batch callers use spacetime.SuggestHorizon).
	Horizon int64
	// PMax is the maximum sketch-path length. It must be positive; batch
	// callers use core.PMaxDet.
	PMax int
	// TileSide is the tile side k; 0 derives ⌈log₂(1+3·pmax)⌉.
	TileSide int
	// Queue bounds the admission queue (the engine's ingress buffer);
	// 0 means DefaultQueue. Admit rejects with RejectedQueueFull when full.
	Queue int
	// ExpectPackets pre-sizes the accepted-packet arenas. Purely an
	// optimization: the arenas grow in chunks regardless.
	ExpectPackets int
	// InOrder makes the consumer loop decide packets in strictly increasing
	// Seq order, parking early arrivals — the mode that makes the decision
	// log deterministic under concurrent producers. Every Seq from FirstSeq
	// upward must then be submitted exactly once; a gap stalls later
	// packets until Drain. Off, packets are decided in queue order.
	InOrder bool
	// FirstSeq is the first sequence number in InOrder mode (default 0).
	FirstSeq int
	// RecordDecisions retains every consumer-loop decision for
	// Result.Decisions (queue-full rejections are not recorded: they never
	// reach the loop).
	RecordDecisions bool
	// NoWarmStart turns off the sketch session's warm-start skip, which
	// reuses the last DP solution when an admit has the previous one's
	// window and source and no path committed in between. Warm and cold
	// engines decide identically; the switch exists for parity tests and
	// benchmarks.
	NoWarmStart bool
	// SpecWorkers is ignored: the engine always decides on its single
	// consumer loop.
	//
	// Deprecated: the speculative admission pipeline it sized was removed
	// (it was slower than the serial loop at 2 procs).
	SpecWorkers int
	// GapTimeout arms the InOrder gap watchdog: if the consumer waits this
	// long for the next expected Seq while later packets sit parked behind
	// the gap, it records a *GapError (see Engine.Err) naming the missing
	// sequence and resumes at the smallest parked Seq instead of stalling
	// until Drain. 0 (the default) keeps the historical park-forever
	// behavior. Only meaningful with InOrder.
	GapTimeout time.Duration
	// Injector wires a deterministic fault-injection harness into the
	// engine: queue-full storms fire at the Admit gate, slow-consumer
	// pauses before each decision, and space-time resource outages mask the
	// failed sketch edges out of the route query (the packet reroutes or is
	// rejected, deterministically). nil disables all hooks at zero cost.
	Injector *fault.Injector
	// Shed enables graceful overload degradation (see ShedPolicy). nil —
	// the default — disables shedding entirely; decisions are then
	// independent of queue pressure, which is what the determinism gates
	// assume.
	Shed *ShedPolicy
	// WALPath, when non-empty, journals every consumer-loop decision to an
	// append-only checksummed write-ahead log at this path (see
	// internal/engine/wal). A crashed engine restarted with Recover replays
	// the log and continues with a byte-identical decision stream. New
	// truncates any existing file; use Recover to resume one.
	WALPath string
	// WALSyncEvery is the WAL fsync batch size (decisions per fsync);
	// 0 means wal.DefaultSyncEvery. A crash loses at most the unsynced
	// tail, which recovery re-decides deterministically.
	WALSyncEvery int
}

// DefaultQueue is the admission queue bound when Options.Queue is 0.
const DefaultQueue = 256

// Stats is a point-in-time snapshot of the engine's counters, safe to read
// from any goroutine while the engine runs.
//
// Snapshots are coherent without a lock by read ordering: every packet's
// Submitted increment happens before its verdict increment (program order —
// Admit counts the submission before the packet can be decided or bounced),
// and Stats loads the verdict counters first and Submitted last, so a
// mid-flight snapshot always satisfies the monotone-pair invariant
//
//	Decided() + Shed + RejectedQueueFull ≤ Submitted
//
// with equality once Drain has returned. In particular a snapshot can never
// show Decided() > Submitted. The invariant is pinned by
// TestEngineStatsSnapshotCoherence.
type Stats struct {
	Submitted         uint64
	Accepted          uint64
	RejectedCost      uint64
	RejectedNoRoute   uint64
	RejectedInvalid   uint64
	RejectedQueueFull uint64
	// Shed counts packets dropped by the overload policy (Options.Shed).
	Shed uint64
	// Recovered counts decisions replayed from the write-ahead log at
	// startup (Recover); they are also included in Submitted and in their
	// verdict counters, but not in AvgWait.
	Recovered uint64
	// QueueLen is the number of packets waiting in the admission queue.
	QueueLen int
	// AvgWait is the mean submission-to-decision latency over decided
	// packets (queue-full rejections excluded: they are decided at the
	// gate, not by the loop).
	AvgWait time.Duration
}

// Rejected is the total over all rejection verdicts (shed packets are
// counted separately in Shed).
func (s Stats) Rejected() uint64 {
	return s.RejectedCost + s.RejectedNoRoute + s.RejectedInvalid + s.RejectedQueueFull
}

// Decided is the number of packets that reached the consumer loop and were
// decided on their merits (shed packets reach the loop too, but are
// accounted in Shed: Submitted = Decided + Shed + RejectedQueueFull after
// drain).
func (s Stats) Decided() uint64 {
	return s.Accepted + s.RejectedCost + s.RejectedNoRoute + s.RejectedInvalid
}

// ErrClosed is returned by Admit after Drain has begun.
var ErrClosed = errors.New("engine: closed to new admissions")

// Envelope delivery states: the submitter and the loop race on `state` with
// a single CAS each, and the loser of the race learns what the winner did.
const (
	envWaiting   uint32 = iota // submitter is (or will be) blocked on reply
	envDelivered               // loop won: the decision is in the buffered reply
	envAbandoned               // submitter won: ctx cancelled, nobody will receive
)

// pending is the envelope of one in-flight admission: the packet (with
// engine-owned coordinate copies), the submission timestamp, a reply channel
// and a delivery state. Envelopes are pooled; ownership passes submit → loop
// → submitter, and exactly one side returns each envelope to the pool: the
// submitter after consuming the reply, or — when the submitter's ctx was
// cancelled and its CAS to envAbandoned won — the loop at delivery time, so
// a cancelled Admit leaks nothing and a reply can never bleed into a
// recycled envelope.
type pending struct {
	pkt      Packet
	src, dst []int
	enq      time.Time
	state    atomic.Uint32
	reply    chan Decision
}

// Engine is a long-lived streaming admission core. Create with New, submit
// with Admit from any number of goroutines, stop with Drain, collect with
// Finish.
type Engine struct {
	g       *grid.Grid
	st      *spacetime.Graph
	tl      *tiling.Tiling
	sk      *sketch.Graph
	sess    *sketch.Session
	pk      *ipp.Packer
	horizon int64
	pmax    int
	k       int
	d       int

	inOrder  bool
	record   bool
	firstSeq int

	gapTimeout time.Duration
	inj        *fault.Injector
	shed       *shedState

	// Write-ahead log state (loop-owned after start; see recover.go).
	wal      *wal.Writer
	walRec   wal.Record
	walRoute sketch.Route

	// Resource-outage mask cache (loop-owned; see outage.go).
	maskEpoch int
	maskEdges []ipp.EdgeID
	maskBuf   []float64
	outBuf    []fault.Event

	errMu    sync.Mutex
	firstErr error

	in   chan *pending
	done chan struct{}
	mu   sync.RWMutex // guards closed against concurrent Admit/Drain
	shut bool

	pool sync.Pool

	// Consumer-loop state (owned by the loop goroutine; read by Finish only
	// after done is closed).
	nextSeq   int
	parked    map[int]*pending
	watermark int64
	srcBuf    []int
	scratch   sketch.Route
	admitted  []detroute.Admitted
	decisions []Decision
	arena     arena

	submitted  atomic.Uint64
	accepted   atomic.Uint64
	rejCost    atomic.Uint64
	rejNoRoute atomic.Uint64
	rejInvalid atomic.Uint64
	rejQFull   atomic.Uint64
	shedCount  atomic.Uint64
	recovered  atomic.Uint64
	decided    atomic.Uint64
	waitNs     atomic.Int64

	finishOnce sync.Once
	result     *Result
}

// New builds the engine's persistent routing state — space-time graph,
// tiling, sketch, one query session, one dense packer, exactly as the batch
// deterministic algorithm does — and starts the consumer loop. With
// Options.WALPath set it also creates (truncating) the write-ahead decision
// log; use Recover to resume an existing log instead.
func New(g *grid.Grid, opts Options) (*Engine, error) {
	e, err := newEngine(g, opts)
	if err != nil {
		return nil, err
	}
	if opts.WALPath != "" {
		w, err := wal.Create(opts.WALPath, e.walParams(), opts.WALSyncEvery)
		if err != nil {
			return nil, fmt.Errorf("engine: create wal: %w", err)
		}
		e.wal = w
	}
	go e.loop()
	return e, nil
}

// newEngine builds a fully-initialized engine without starting any
// goroutines, so Recover can replay a WAL into it first.
func newEngine(g *grid.Grid, opts Options) (*Engine, error) {
	if g.B != 0 && (g.B < 3 || g.C < 3) {
		return nil, fmt.Errorf("engine: deterministic admission requires B, c ≥ 3 (or B = 0, c ≥ 3); got B=%d c=%d", g.B, g.C)
	}
	if g.B == 0 && g.C < 3 {
		return nil, fmt.Errorf("engine: bufferless variant requires c ≥ 3; got c=%d", g.C)
	}
	if g.D()+1 > detroute.MaxAxes {
		return nil, fmt.Errorf("engine: detailed routing supports grids of dimension ≤ %d (detroute.MaxAxes = %d lattice axes); got d=%d", detroute.MaxAxes-1, detroute.MaxAxes, g.D())
	}
	if opts.Horizon <= 0 {
		return nil, errors.New("engine: Options.Horizon must be positive (use spacetime.SuggestHorizon for batch workloads)")
	}
	if opts.PMax <= 0 {
		return nil, errors.New("engine: Options.PMax must be positive (use core.PMaxDet for the paper's bound)")
	}
	if opts.TileSide < 0 {
		return nil, errors.New("engine: Options.TileSide must not be negative (0 derives k from PMax)")
	}
	k := opts.TileSide
	if k == 0 {
		k = ipp.K(opts.PMax)
	}
	queue := opts.Queue
	if queue <= 0 {
		queue = DefaultQueue
	}

	st := spacetime.New(g, opts.Horizon)
	d := g.D()
	side := make([]int, d+1)
	phase := make([]int, d+1)
	for i := range side {
		side[i] = k
	}
	tl := tiling.New(st.Box, side, phase)
	sk := sketch.New(st, tl, sketch.Downscaled)
	// Splitting tiles doubles path length plus one (Sec. 5.1); dense mode,
	// same as the batch path.
	pk := ipp.NewDense(2*opts.PMax+1, sk.Cap, sk.Universe())

	e := &Engine{
		g: g, st: st, tl: tl, sk: sk, sess: sk.NewSession(), pk: pk,
		horizon: opts.Horizon, pmax: opts.PMax, k: k, d: d,
		inOrder: opts.InOrder, record: opts.RecordDecisions,
		firstSeq:   opts.FirstSeq,
		gapTimeout: opts.GapTimeout,
		inj:        opts.Injector,
		maskEpoch:  -1,
		in:         make(chan *pending, queue),
		done:       make(chan struct{}),
		nextSeq:    opts.FirstSeq,
		watermark:  math.MinInt64,
		srcBuf:     make([]int, d+1),
	}
	if opts.Shed != nil {
		e.shed = opts.Shed.state(queue)
	}
	if opts.InOrder {
		e.parked = make(map[int]*pending)
	}
	if opts.NoWarmStart {
		e.sess.SetWarmStart(false)
	}
	e.pool.New = func() any {
		return &pending{
			src:   make([]int, 0, d),
			dst:   make([]int, 0, d),
			reply: make(chan Decision, 1),
		}
	}
	e.arena.init(opts.ExpectPackets)
	if opts.ExpectPackets > 0 {
		e.admitted = make([]detroute.Admitted, 0, opts.ExpectPackets)
	}
	return e, nil
}

// Grid returns the engine's grid.
func (e *Engine) Grid() *grid.Grid { return e.g }

// Params returns the engine's resolved (horizon, pmax, k).
func (e *Engine) Params() (horizon int64, pmax, k int) { return e.horizon, e.pmax, e.k }

// Admit submits one packet and blocks until the engine decides it, the
// bounded queue rejects it, or ctx is done. It is safe to call from any
// number of goroutines. After Drain has begun it returns ErrClosed.
//
// On ctx cancellation Admit returns promptly with ctx.Err(), but the packet
// may still be decided (and, if accepted, routed) later: cancellation
// abandons the wait, not the submission. The pooled envelope is reclaimed by
// whichever side loses the delivery race (see pending), so a cancelled Admit
// leaks nothing; if the decision already landed when cancellation is
// observed, Admit returns it instead of the error.
//
//gridroute:hotpath
func (e *Engine) Admit(ctx context.Context, pkt Packet) (Decision, error) {
	p := e.pool.Get().(*pending)
	p.pkt = pkt
	p.src = append(p.src[:0], pkt.Src...)
	p.dst = append(p.dst[:0], pkt.Dst...)
	p.pkt.Src = p.src
	p.pkt.Dst = p.dst
	p.enq = time.Now() //gridlint:allow metrics-only latency stamp (Decision.Wait), never reaches the log
	p.state.Store(envWaiting)

	// The closed flag and the channel send sit under a read lock so Drain's
	// close(e.in) (under the write lock) cannot race a send. Submitted is
	// counted before the send: the Stats snapshot contract requires every
	// packet's Submitted increment to precede its verdict increment.
	e.mu.RLock()
	if e.shut {
		e.mu.RUnlock()
		e.pool.Put(p)
		return Decision{}, ErrClosed
	}
	e.submitted.Add(1)
	if e.inj != nil && e.inj.StormBounce(pkt.Seq) {
		// Injected queue-full storm: bounce exactly as a full queue would.
		e.mu.RUnlock()
		e.pool.Put(p)
		e.rejQFull.Add(1)
		return Decision{Seq: pkt.Seq, Verdict: RejectedQueueFull}, nil
	}
	select {
	case e.in <- p:
		e.mu.RUnlock()
	default:
		e.mu.RUnlock()
		e.pool.Put(p)
		e.rejQFull.Add(1)
		return Decision{Seq: pkt.Seq, Verdict: RejectedQueueFull}, nil
	}

	select {
	case d := <-p.reply:
		e.pool.Put(p)
		return d, nil
	case <-ctx.Done():
		if p.state.CompareAndSwap(envWaiting, envAbandoned) {
			// The loop observes the abandonment at delivery time and
			// recycles the envelope itself.
			return Decision{}, ctx.Err()
		}
		// Delivery won the race: the decision is (or is immediately about
		// to be) in the buffered reply. Consume it, recycle, return it.
		d := <-p.reply
		e.pool.Put(p)
		return d, nil
	}
}

// Stats returns a snapshot of the counters. Load order is part of the
// contract (see the Stats type doc): outcome counters first — verdicts,
// Shed, queue-full — then Submitted last, so the documented monotone-pair
// invariant holds for every snapshot, not just quiescent ones.
func (e *Engine) Stats() Stats {
	s := Stats{
		Accepted:          e.accepted.Load(),
		RejectedCost:      e.rejCost.Load(),
		RejectedNoRoute:   e.rejNoRoute.Load(),
		RejectedInvalid:   e.rejInvalid.Load(),
		Shed:              e.shedCount.Load(),
		Recovered:         e.recovered.Load(),
		RejectedQueueFull: e.rejQFull.Load(),
	}
	if n := e.decided.Load(); n > 0 {
		s.AvgWait = time.Duration(e.waitNs.Load() / int64(n))
	}
	s.Submitted = e.submitted.Load()
	s.QueueLen = len(e.in)
	return s
}

// Err returns the first asynchronous engine fault — a gap-watchdog break
// (*GapError) or a WAL write failure — or nil. The engine keeps deciding
// after such faults; callers poll Err (typically after Drain) to learn the
// run was degraded.
func (e *Engine) Err() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.firstErr
}

// setErr records the first asynchronous fault; later ones are dropped.
func (e *Engine) setErr(err error) {
	e.errMu.Lock()
	if e.firstErr == nil {
		e.firstErr = err
	}
	e.errMu.Unlock()
}

// loop is the single consumer: it owns every piece of mutable routing state
// and decides packets strictly one at a time. With Options.GapTimeout set it
// also runs the InOrder gap watchdog: whenever packets are parked behind a
// missing Seq, a timer measures how long nextSeq has been stuck (re-armed
// only when nextSeq advances, so slow-but-progressing streams never fire it)
// and on expiry the gap is broken (gap.go).
func (e *Engine) loop() {
	defer close(e.done)
	watch := e.inOrder && e.gapTimeout > 0
	var w gapWatch
	for {
		var p *pending
		var ok bool
		if watch && len(e.parked) > 0 {
			w.arm(e.gapTimeout, e.nextSeq)
			select {
			case p, ok = <-e.in:
			case <-w.timer.C:
				w.armed = false
				e.breakGap()
				continue
			}
		} else {
			p, ok = <-e.in
		}
		if !ok {
			break
		}
		if e.inOrder {
			e.processOrdered(p)
		} else {
			e.process(p)
		}
	}
	e.flushParked()
}

//gridroute:hotpath
func (e *Engine) processOrdered(p *pending) {
	if p.pkt.Seq != e.nextSeq {
		e.parked[p.pkt.Seq] = p
		return
	}
	e.process(p)
	e.nextSeq++
	for {
		q, ok := e.parked[e.nextSeq]
		if !ok {
			return
		}
		delete(e.parked, e.nextSeq)
		e.process(q)
		e.nextSeq++
	}
}

// flushParked decides leftover parked packets at drain time in Seq order
// (their gap seqs were never submitted).
func (e *Engine) flushParked() {
	if len(e.parked) == 0 {
		return
	}
	seqs := make([]int, 0, len(e.parked))
	for s := range e.parked {
		seqs = append(seqs, s)
	}
	sort.Ints(seqs)
	for _, s := range seqs {
		p := e.parked[s]
		delete(e.parked, s)
		e.process(p)
	}
}

//gridroute:hotpath
func (e *Engine) process(p *pending) {
	if e.inj != nil {
		if d := e.inj.PauseBefore(p.pkt.Seq); d > 0 {
			time.Sleep(d) //gridlint:allow fault-injected slow-consumer stall: delays the loop, never changes a verdict
		}
	}
	d := e.decide(&p.pkt)
	d.Wait = time.Since(p.enq)
	e.finalize(p, d)
}

// finalize is the single exit path of every consumer-loop decision: count
// it, record it, journal it, deliver it.
//
//gridroute:hotpath
func (e *Engine) finalize(p *pending, d Decision) {
	e.count(d)
	if e.record {
		e.decisions = append(e.decisions, d)
	}
	if e.wal != nil {
		e.walAppend(&p.pkt, d)
	}
	e.deliver(p, d)
}

// deliver hands a decision to the submitter, or reclaims the envelope if the
// submitter abandoned the wait (ctx cancellation). Exactly one side recycles
// each envelope: the CAS decides which.
//
//gridroute:hotpath
func (e *Engine) deliver(p *pending, d Decision) {
	if p.state.CompareAndSwap(envWaiting, envDelivered) {
		p.reply <- d
		return
	}
	// Abandoned: no receiver will ever come; the loop owns the envelope now.
	e.pool.Put(p)
}

// decide is the warm admit path: one sketch lightest-route query plus one
// packer offer, mirroring the batch loop body of the deterministic
// algorithm. It is allocation-free in steady state.
//
//gridroute:deterministic
//gridroute:hotpath
func (e *Engine) decide(pkt *Packet) Decision {
	d := Decision{Seq: pkt.Seq}
	r := grid.Request{ID: pkt.Seq, Src: pkt.Src, Dst: pkt.Dst, Arrival: pkt.Arrival, Deadline: pkt.Deadline}
	// Validity gate: infeasible or out-of-order packets never touch the
	// packer, so a pre-validated batch stream sees the exact Offer sequence
	// of the batch algorithm.
	if pkt.Arrival < e.watermark || !r.Feasible(e.g) {
		d.Verdict = RejectedInvalid
		return d
	}
	e.watermark = pkt.Arrival
	if e.shed != nil && e.shedPre(pkt) {
		// Deadline-aware early shed under queue pressure: the packet would
		// queue past its slack anyway, so drop it before the DP runs.
		d.Verdict = Shed
		return d
	}

	src := e.st.ToLattice(r.Src, r.Arrival, e.srcBuf)
	wLo, wHi := e.st.DestRay(&r)
	if e.g.B == 0 {
		// Bufferless: the only reachable copy shares the source's w.
		wLo, wHi = src[e.d], src[e.d]
	}
	var ok bool
	if blocked := e.activeMask(pkt.Arrival); blocked != nil {
		ok = e.sess.LightestRouteMasked(e.pk, src, r.Dst, wLo, wHi, e.pmax, blocked, e.maskBuf, &e.scratch)
	} else {
		ok = e.sess.LightestRouteInto(e.pk, src, r.Dst, wLo, wHi, e.pmax, &e.scratch)
	}
	if !ok {
		e.pk.Offer(nil, 0)
		d.Verdict = RejectedNoRoute
		return d
	}
	d.Cost = e.scratch.Cost
	d.Tiles = e.scratch.NumTiles()
	if e.shed != nil && e.shedPost(e.scratch.Cost) {
		// The route clears the paper's α(p) < 1 threshold but not the
		// tightened one: shed without offering.
		d.Verdict = Shed
		return d
	}
	if !e.pk.Offer(e.scratch.Edges, e.scratch.Cost) {
		d.Verdict = RejectedCost
		return d
	}
	d.Verdict = Accepted
	e.admitted = append(e.admitted, e.arena.retain(&r, &e.scratch))
	return d
}

//gridroute:hotpath
func (e *Engine) count(d Decision) {
	switch d.Verdict {
	case Accepted:
		e.accepted.Add(1)
	case RejectedCost:
		e.rejCost.Add(1)
	case RejectedNoRoute:
		e.rejNoRoute.Add(1)
	case Shed:
		e.shedCount.Add(1)
	default:
		e.rejInvalid.Add(1)
	}
	e.waitNs.Add(int64(d.Wait))
	e.decided.Add(1)
}
