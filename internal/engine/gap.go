package engine

import (
	"fmt"
	"math"
	"time"
)

// GapError reports that the InOrder consumer waited Options.GapTimeout
// without receiving the next expected sequence number while later packets
// sat parked behind the gap. The engine does not stall: it resumes at the
// smallest parked sequence (every seq in [Missing, SkippedTo) is missing)
// and records the error for Engine.Err.
type GapError struct {
	// Missing is the first sequence number that never arrived.
	Missing int
	// SkippedTo is the sequence number the loop resumed at.
	SkippedTo int
	// Parked is how many packets were parked behind the gap when it broke.
	Parked int
	// Waited is the configured GapTimeout.
	Waited time.Duration
}

func (e *GapError) Error() string {
	return fmt.Sprintf("engine: in-order gap: seq %d missing for %s (%d parked; resumed at seq %d)",
		e.Missing, e.Waited, e.Parked, e.SkippedTo)
}

// gapWatch is the consumer loop's watchdog timer state. The timer is
// (re)armed only when the stuck sequence number changes, so it measures "no
// progress past nextSeq for GapTimeout" — not "no arrivals for GapTimeout" —
// and a slow but progressing stream never fires it.
type gapWatch struct {
	timer    *time.Timer
	armed    bool
	armedSeq int
}

func (w *gapWatch) arm(d time.Duration, nextSeq int) {
	if w.armed && w.armedSeq == nextSeq {
		return // clock already running against this gap
	}
	if w.timer == nil {
		w.timer = time.NewTimer(d)
	} else {
		if !w.timer.Stop() {
			select {
			case <-w.timer.C:
			default:
			}
		}
		w.timer.Reset(d)
	}
	w.armed, w.armedSeq = true, nextSeq
}

// breakGap resolves a timed-out InOrder gap: record the typed error,
// advance to the smallest parked seq and process the contiguous run behind
// it.
func (e *Engine) breakGap() {
	if len(e.parked) == 0 {
		return
	}
	first := math.MaxInt
	for s := range e.parked {
		first = min(first, s)
	}
	e.setErr(&GapError{Missing: e.nextSeq, SkippedTo: first, Parked: len(e.parked), Waited: e.gapTimeout})
	e.nextSeq = first
	p := e.parked[first]
	delete(e.parked, first)
	e.processOrdered(p)
}
