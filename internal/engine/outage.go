package engine

import (
	"sort"

	"gridroute/internal/fault"
	"gridroute/internal/grid"
	"gridroute/internal/ipp"
)

// Resource-outage masking: a fault schedule can take space-time resources —
// grid nodes or edges failing over a real-time interval — out of service.
// The engine translates each failed (node, time) copy into the sketch edge
// ids it disables (the containing tile's interior edge for a node outage,
// one axis edge, or the hold edge for axis d) and solves the route query
// over weights with those edges at +Inf, so admitted packets deterministically
// route around the failure or are rejected. Outages act at sketch
// granularity: failing a node blacks out the whole tile containing it for
// the affected time steps — the routing resolution the engine works at.

// activeMask returns the blocked sketch-edge ids for the packet's arrival
// time, or nil when no outage is active. The translated mask is cached per
// outage epoch (the active set only changes at event boundaries), so steady
// state costs one binary search per decision. Decider only (decideMu held).
func (e *Engine) activeMask(arrival int64) []ipp.EdgeID {
	if e.inj == nil || !e.inj.HasOutages() {
		return nil
	}
	ep := e.inj.OutageEpoch(arrival)
	if ep != e.maskEpoch {
		e.maskEpoch = ep
		e.outBuf = e.inj.ActiveOutages(arrival, e.outBuf[:0])
		e.maskEdges = e.buildMask(e.outBuf, e.maskEdges[:0])
	}
	if len(e.maskEdges) == 0 {
		return nil
	}
	return e.maskEdges
}

// buildMask translates active outage events into a sorted, deduplicated
// blocked-edge list. Events that do not address this grid (wrong dimension,
// out-of-range node or axis) are ignored rather than faulted: a schedule is
// data, and routing must keep going.
func (e *Engine) buildMask(events []fault.Event, out []ipp.EdgeID) []ipp.EdgeID {
	seen := make(map[ipp.EdgeID]struct{})
	pt := make([]int, e.d+1)
	tbuf := make([]int, e.d+1)
	for _, ev := range events {
		if len(ev.Node) != e.d || ev.Axis > e.d || !e.g.Contains(grid.Vec(ev.Node)) {
			continue
		}
		wLo, wHi, ok := e.st.OutageWindow(grid.Vec(ev.Node), ev.From, ev.To)
		if !ok {
			continue
		}
		copy(pt[:e.d], ev.Node)
		for w := wLo; w <= wHi; w++ {
			pt[e.d] = w
			tile := e.tl.TBox.Index(e.tl.TileOf(pt, tbuf))
			var id ipp.EdgeID
			if ev.Axis < 0 {
				id = e.sk.InteriorEdgeID(tile)
			} else {
				id = e.sk.AxisEdgeID(tile, ev.Axis)
			}
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
