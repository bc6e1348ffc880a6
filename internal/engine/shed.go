package engine

import "gridroute/internal/grid"

// ShedPolicy configures graceful overload degradation. With a policy set the
// engine checks its own queue occupancy at every decision and, under
// sustained pressure, degrades in two ways instead of letting latency (and
// the queue-full rate) spike:
//
//   - Deadline-aware early shedding: while the queue sits at or above the
//     HighWater mark, packets whose deadline slack (Deadline − Arrival) is
//     below MinSlack are shed before the route DP runs — they would queue
//     past their slack anyway, so the engine spends no work on them.
//
//   - Adaptive threshold tightening: after TightenAfter consecutive
//     pressured decisions the admission threshold τ walks down from 1 by
//     TightenStep per decision (never below Floor), shedding routable
//     packets whose cost lands in [τ, 1) — the marginal admissions that
//     contribute the least headroom per unit of work. When pressure clears,
//     τ walks back up to 1 at the same rate.
//
// Shed decisions carry the Shed verdict, appear in the decision log and
// advance the arrival watermark, but never mutate packer weights. Shedding
// makes decisions depend on live queue pressure, so it is off by default and
// chaos/overload runs are excluded from the byte-determinism gates (the
// accounting invariant Submitted = Decided + Shed + RejectedQueueFull is
// gated instead).
type ShedPolicy struct {
	// HighWater is the queue-occupancy fraction in (0, 1] at or above which
	// the engine counts itself pressured. 0 means DefaultShedHighWater.
	HighWater float64
	// MinSlack enables deadline-aware early shedding while pressured.
	// 0 disables it.
	MinSlack int64
	// TightenAfter is how many consecutive pressured decisions are
	// tolerated before tightening starts. 0 means DefaultShedTightenAfter.
	TightenAfter int
	// TightenStep is the per-decision τ decrement while tightening (and the
	// recovery increment while unpressured). 0 means DefaultShedTightenStep.
	TightenStep float64
	// Floor is the lowest τ tightening can reach, in (0, 1].
	// 0 means DefaultShedFloor.
	Floor float64
}

// Shed-policy defaults.
const (
	DefaultShedHighWater    = 0.75
	DefaultShedTightenAfter = 64
	DefaultShedTightenStep  = 1.0 / 256
	DefaultShedFloor        = 0.5
)

// shedState is the runtime state of a ShedPolicy, guarded by decideMu.
type shedState struct {
	highWater    int // queue length at/above which the engine is pressured
	minSlack     int64
	tightenAfter int
	step         float64
	floor        float64

	streak int     // consecutive pressured decisions
	tau    float64 // current admission threshold, in [floor, 1]
}

// state resolves the policy's defaults against the engine's queue bound.
func (p *ShedPolicy) state(queue int) *shedState {
	hw := p.HighWater
	if hw <= 0 {
		hw = DefaultShedHighWater
	}
	if hw > 1 {
		hw = 1
	}
	high := int(hw * float64(queue))
	if high < 1 {
		high = 1
	}
	ta := p.TightenAfter
	if ta <= 0 {
		ta = DefaultShedTightenAfter
	}
	step := p.TightenStep
	if step <= 0 {
		step = DefaultShedTightenStep
	}
	floor := p.Floor
	if floor <= 0 {
		floor = DefaultShedFloor
	}
	if floor > 1 {
		floor = 1
	}
	return &shedState{
		highWater: high, minSlack: p.MinSlack,
		tightenAfter: ta, step: step, floor: floor, tau: 1,
	}
}

// shedPre runs once per decision, before the route query: it updates the
// pressure streak and threshold, and reports whether the packet should be
// shed outright (deadline-aware early shed). Decider only (decideMu held).
func (e *Engine) shedPre(pkt *Packet) bool {
	s := e.shed
	if len(e.in) >= s.highWater {
		s.streak++
		if s.streak > s.tightenAfter && s.tau > s.floor {
			s.tau -= s.step
			if s.tau < s.floor {
				s.tau = s.floor
			}
		}
		if s.minSlack > 0 && pkt.Deadline != grid.InfDeadline && pkt.Deadline-pkt.Arrival < s.minSlack {
			return true
		}
	} else {
		s.streak = 0
		if s.tau < 1 {
			s.tau += s.step
			if s.tau > 1 {
				s.tau = 1
			}
		}
	}
	return false
}

// shedPost reports whether a routable packet's cost clears the paper's
// α(p) < 1 admission threshold but not the tightened one.
func (e *Engine) shedPost(cost float64) bool {
	return e.shed.tau < 1 && cost < 1 && cost >= e.shed.tau
}
