package engine

import (
	"errors"
	"fmt"
	"io"
	"os"

	"gridroute/internal/engine/wal"
	"gridroute/internal/grid"
	"gridroute/internal/sketch"
)

// ErrWALMismatch is returned (wrapped, with details) by Recover when the
// log's header parameters do not describe the engine being rebuilt.
var ErrWALMismatch = errors.New("engine: WAL parameters do not match engine options")

// Recovery summarizes a WAL replay.
type Recovery struct {
	// Decisions is the number of logged decisions replayed into the engine.
	Decisions int
	// NextSeq is the first sequence number the recovered engine expects;
	// producers resume submission there.
	NextSeq int
	// Truncated is the number of torn/corrupt tail bytes dropped from the
	// log before appending resumes (0 for a cleanly-closed log). The
	// decisions a dropped tail held are re-decided deterministically when
	// the stream is resubmitted, so the merged decision log is unchanged.
	Truncated int64
}

// Recover rebuilds an engine from the write-ahead log at opts.WALPath and
// starts it. The logged prefix is replayed decision by decision — rebuilding
// the IPP weights, the arrival watermark, the accepted-packet arenas and the
// next expected sequence number exactly as the original run built them — so
// the restarted engine's subsequent decisions are byte-identical to the
// uninterrupted run's. A torn or corrupt tail (the expected shape after a
// crash, since fsync is batched) is truncated and re-decided; any other
// error aborts. The surviving log is reopened for appending, so a recovered
// engine keeps journaling.
//
// Producers must resubmit the stream starting at Recovery.NextSeq (packets
// below it are already decided; in InOrder mode resubmitting them would park
// forever).
func Recover(g *grid.Grid, opts Options) (*Engine, Recovery, error) {
	if opts.WALPath == "" {
		return nil, Recovery{}, errors.New("engine: Recover requires Options.WALPath")
	}
	e, err := newEngine(g, opts)
	if err != nil {
		return nil, Recovery{}, err
	}
	rd, params, err := wal.Open(opts.WALPath)
	if err != nil {
		return nil, Recovery{}, fmt.Errorf("engine: open wal: %w", err)
	}
	if err := e.checkWALParams(params); err != nil {
		rd.Close()
		return nil, Recovery{}, err
	}
	var info Recovery
	truncAt := int64(-1)
	var rec wal.Record
	for {
		rerr := rd.Next(&rec)
		if rerr == io.EOF {
			break
		}
		if off, ok := wal.Recoverable(rerr); ok {
			// Torn or corrupt tail: drop it. The decisions it held will be
			// re-decided deterministically as the stream is resubmitted.
			truncAt = off
			break
		}
		if rerr != nil {
			rd.Close()
			return nil, Recovery{}, fmt.Errorf("engine: read wal: %w", rerr)
		}
		if aerr := e.applyRecord(&rec); aerr != nil {
			rd.Close()
			return nil, Recovery{}, aerr
		}
		info.Decisions++
	}
	rd.Close()
	if truncAt >= 0 {
		if fi, serr := os.Stat(opts.WALPath); serr == nil {
			info.Truncated = fi.Size() - truncAt
		}
	}
	w, err := wal.Resume(opts.WALPath, truncAt, opts.WALSyncEvery)
	if err != nil {
		return nil, Recovery{}, fmt.Errorf("engine: resume wal: %w", err)
	}
	e.wal = w
	e.recovered.Store(uint64(info.Decisions))
	info.NextSeq = e.nextSeq
	go e.loop()
	return e, info, nil
}

// walParams derives the header parameters that identify this engine's
// configuration.
func (e *Engine) walParams() wal.Params {
	return wal.Params{
		Dims:     append([]int(nil), e.g.Dims...),
		B:        e.g.B,
		C:        e.g.C,
		Horizon:  e.horizon,
		PMax:     e.pmax,
		TileSide: e.k,
		FirstSeq: e.firstSeq,
	}
}

func (e *Engine) checkWALParams(p wal.Params) error {
	want := e.walParams()
	same := len(p.Dims) == len(want.Dims) && p.B == want.B && p.C == want.C &&
		p.Horizon == want.Horizon && p.PMax == want.PMax &&
		p.TileSide == want.TileSide && p.FirstSeq == want.FirstSeq
	if same {
		for i := range p.Dims {
			if p.Dims[i] != want.Dims[i] {
				same = false
				break
			}
		}
	}
	if !same {
		return fmt.Errorf("%w: log %+v, engine %+v", ErrWALMismatch, p, want)
	}
	return nil
}

// applyRecord replays one logged decision into pre-start engine state,
// issuing the exact packer Offer sequence the live run issued: accepted
// records re-offer their logged route (rebuilding weights bit-identically),
// cost/no-route rejections re-offer nil (bumping only the packer's internal
// rejection counter, exactly like the live paths), shed and invalid records
// touch no packer state. Corrupt-but-checksummed records surface as errors —
// never a panic, never a half-applied record.
//
//gridroute:deterministic
func (e *Engine) applyRecord(rec *wal.Record) error {
	v := Verdict(rec.Verdict)
	d := Decision{Seq: rec.Seq, Verdict: v, Cost: rec.Cost, Tiles: rec.Tiles}
	switch v {
	case Accepted:
		if !rec.HasRoute {
			return fmt.Errorf("engine: wal seq %d: accepted record without route", rec.Seq)
		}
		if len(rec.Src) != e.d || len(rec.Dst) != e.d {
			return fmt.Errorf("engine: wal seq %d: route coords have %d/%d dims, grid has %d",
				rec.Seq, len(rec.Src), len(rec.Dst), e.d)
		}
		route, err := e.routeFromWAL(rec)
		if err != nil {
			return err
		}
		if !e.pk.Offer(route.Edges, rec.Cost) {
			return fmt.Errorf("engine: wal replay diverged at seq %d: packer rejected the logged route", rec.Seq)
		}
		r := grid.Request{
			ID: rec.Seq, Src: grid.Vec(rec.Src), Dst: grid.Vec(rec.Dst),
			Arrival: rec.Arrival, Deadline: rec.Deadline,
		}
		e.admitted = append(e.admitted, e.arena.retain(&r, route))
		e.accepted.Add(1)
		e.watermark = rec.Arrival
	case RejectedCost:
		e.pk.Offer(nil, 0)
		e.rejCost.Add(1)
		e.watermark = rec.Arrival
	case RejectedNoRoute:
		e.pk.Offer(nil, 0)
		e.rejNoRoute.Add(1)
		e.watermark = rec.Arrival
	case Shed:
		e.shedCount.Add(1)
		e.watermark = rec.Arrival
	case RejectedInvalid:
		e.rejInvalid.Add(1)
	default:
		// RejectedQueueFull never reaches the loop and is never logged.
		return fmt.Errorf("engine: wal seq %d: unexpected verdict %d in log", rec.Seq, rec.Verdict)
	}
	e.submitted.Add(1)
	if e.record {
		e.decisions = append(e.decisions, d)
	}
	if rec.Seq+1 > e.nextSeq {
		e.nextSeq = rec.Seq + 1
	}
	return nil
}

// routeFromWAL reconstructs an accepted record's sketch route from its start
// tile and axis steps, re-deriving the interleaved interior/axis edge ids
// exactly as routeInto builds them. Every step is bounds-checked: a
// checksummed-but-nonsensical record is a typed error, not a panic.
func (e *Engine) routeFromWAL(rec *wal.Record) (*sketch.Route, error) {
	tb := e.tl.TBox
	if rec.StartTile >= tb.Size() {
		return nil, fmt.Errorf("engine: wal seq %d: start tile %d outside tiling (%d tiles)", rec.Seq, rec.StartTile, tb.Size())
	}
	if rec.Tiles != len(rec.Axes)+1 {
		return nil, fmt.Errorf("engine: wal seq %d: tile count %d does not match %d axis steps", rec.Seq, rec.Tiles, len(rec.Axes))
	}
	rt := &e.walRoute
	id := rec.StartTile
	rt.Tiles = append(rt.Tiles[:0], id)
	rt.Edges = append(rt.Edges[:0], e.sk.InteriorEdgeID(id))
	rt.Axes = append(rt.Axes[:0], rec.Axes...)
	for _, a := range rec.Axes {
		if int(a) > e.d {
			return nil, fmt.Errorf("engine: wal seq %d: axis %d out of range", rec.Seq, a)
		}
		rt.Edges = append(rt.Edges, e.sk.AxisEdgeID(id, int(a)))
		nid, ok := tb.Step(id, int(a))
		if !ok {
			return nil, fmt.Errorf("engine: wal seq %d: route steps off the tiling along axis %d", rec.Seq, a)
		}
		id = nid
		rt.Tiles = append(rt.Tiles, id)
		rt.Edges = append(rt.Edges, e.sk.InteriorEdgeID(id))
	}
	rt.Cost = rec.Cost
	return rt, nil
}

// walAppend journals one consumer-loop decision. A write failure is sticky
// (Engine.Err) and disables further logging rather than failing admission:
// the engine degrades to an unjournaled run instead of going down with the
// disk.
func (e *Engine) walAppend(pkt *Packet, d Decision) {
	rec := &e.walRec
	rec.Seq = pkt.Seq
	rec.Verdict = uint8(d.Verdict)
	rec.Arrival = pkt.Arrival
	rec.Cost = d.Cost
	rec.Tiles = d.Tiles
	rec.HasRoute = d.Verdict == Accepted
	if rec.HasRoute {
		last := &e.admitted[len(e.admitted)-1]
		rec.Deadline = pkt.Deadline
		rec.Src = append(rec.Src[:0], pkt.Src...)
		rec.Dst = append(rec.Dst[:0], pkt.Dst...)
		rec.StartTile = last.Route.Tiles[0]
		rec.Axes = append(rec.Axes[:0], last.Route.Axes...)
	}
	if err := e.wal.Append(rec); err != nil {
		e.setErr(fmt.Errorf("engine: wal append: %w", err))
		e.wal.Close()
		e.wal = nil
	}
}
