// Package gridroute is a library for online packet routing in
// uni-directional grids with bounded buffers, reproducing
//
//	Guy Even, Moti Medina: "Online Packet-Routing in Grids with Bounded
//	Buffers", SPAA 2011 (full version arXiv:1407.4498).
//
// It provides the paper's deterministic O(log^{d+4} n)-competitive
// algorithm for d-dimensional grids (with deadlines, bufferless and
// large-capacity variants), the randomized O(log n)-competitive algorithm
// for lines, the greedy and nearest-to-go baselines, a cycle-accurate
// store-and-forward network simulator for verification, workload
// generators, and certified upper bounds on the optimal throughput for
// honest competitive-ratio measurements.
//
// Quick start:
//
//	g, reqs, _ := gridroute.GenerateScenario("uniform", nil) // 64-node line, B = c = 3
//	res, err := gridroute.Deterministic().Route(g, reqs)
//	// res.Throughput packets delivered; res.Violations is empty —
//	// every schedule was replayed on the simulated network.
//
// Workloads come from a registry of named scenarios (Scenarios lists them;
// routesim -list-scenarios prints the catalog) spanning random, bursty,
// heavy-tailed, permutation and adversarial traffic on lines, 2-d grids
// and 3-d lattices.
package gridroute

import (
	"fmt"
	"math/rand"

	"gridroute/internal/baseline"
	"gridroute/internal/core"
	"gridroute/internal/grid"
	"gridroute/internal/netsim"
	"gridroute/internal/optbound"
	"gridroute/internal/scenario"
	"gridroute/internal/spacetime"
)

// Grid is a uni-directional d-dimensional grid network (vertices
// [ℓ1]×…×[ℓd], buffer size B per node, link capacity C).
type Grid = grid.Grid

// Request is a packet request (a_i, b_i, t_i, d_i).
type Request = grid.Request

// Vec is a grid coordinate vector.
type Vec = grid.Vec

// Schedule is an explicit space-time route of one packet.
type Schedule = spacetime.Schedule

// InfDeadline marks requests without deadlines.
const InfDeadline = grid.InfDeadline

// NewGrid constructs a d-dimensional uni-directional grid.
func NewGrid(dims []int, b, c int) *Grid { return grid.New(dims, b, c) }

// NewLine constructs a uni-directional line with n nodes.
func NewLine(n, b, c int) *Grid { return grid.Line(n, b, c) }

// Result is the unified outcome of routing a request sequence.
type Result struct {
	Algorithm string
	// Requests is the number of offered requests; Admitted the number
	// injected; Throughput the number delivered on time.
	Requests   int
	Admitted   int
	Throughput int
	// Schedules holds the executed space-time route per request (nil for
	// requests that were rejected or preempted).
	Schedules []*Schedule
	// Violations lists capacity/buffer violations found when replaying the
	// schedules on the simulated network. A correct run has none.
	Violations []string
	// Detail exposes the algorithm-specific result (*core.DetResult,
	// *core.RandResult, *core.LargeCapResult or *netsim.Result).
	Detail any
}

// Router routes an online request sequence on a grid.
type Router interface {
	Name() string
	Route(g *Grid, reqs []Request) (*Result, error)
}

func verified(name string, g *Grid, reqs []Request, schedules []*Schedule, admitted, throughput int, detail any) *Result {
	rep := netsim.ReplaySchedules(g, reqs, schedules, netsim.Model1)
	return &Result{
		Algorithm:  name,
		Requests:   len(reqs),
		Admitted:   admitted,
		Throughput: throughput,
		Schedules:  schedules,
		Violations: rep.Violation,
		Detail:     detail,
	}
}

type detRouter struct{ cfg core.DetConfig }

// Deterministic returns the paper's deterministic algorithm (Algorithm 1):
// centralized, preemptive, handles deadlines, requires B, c ≥ 3 (or B = 0,
// c ≥ 3 for the bufferless variant of Thm 11).
func Deterministic() Router { return detRouter{} }

// DeterministicWith returns the deterministic algorithm with a custom
// horizon, pmax, or tile side (0 keeps the paper's choice).
func DeterministicWith(horizon int64, pmax, tileSide int) Router {
	return detRouter{cfg: core.DetConfig{Horizon: horizon, PMax: pmax, TileSide: tileSide}}
}

func (detRouter) Name() string { return "even-medina-det" }

func (r detRouter) Route(g *Grid, reqs []Request) (*Result, error) {
	res, err := core.RunDeterministic(g, reqs, r.cfg)
	if err != nil {
		return nil, err
	}
	return verified(r.Name(), g, reqs, res.Schedules, res.Admitted, res.Throughput, res), nil
}

type randRouter struct {
	cfg  core.RandConfig
	seed int64
}

// Randomized returns the paper's randomized O(log n)-competitive algorithm
// for uni-directional lines (Sec. 7), with the paper's constants (γ = 200).
func Randomized(seed int64) Router { return randRouter{seed: seed} }

// RandomizedWith returns the randomized algorithm with an explicit
// sparsification constant γ (engineering mode uses small γ; experiment E13
// measures the choice) and forced branch (0 = fair coin, 1 = Far⁺,
// 2 = Near).
func RandomizedWith(seed int64, gamma float64, branch int) Router {
	return randRouter{seed: seed, cfg: core.RandConfig{Gamma: gamma, Branch: branch}}
}

func (randRouter) Name() string { return "even-medina-rand" }

func (r randRouter) Route(g *Grid, reqs []Request) (*Result, error) {
	res, err := core.RunRandomized(g, reqs, r.cfg, rand.New(rand.NewSource(r.seed)))
	if err != nil {
		return nil, err
	}
	return verified(r.Name(), g, reqs, res.Schedules, res.Injected, res.Throughput, res), nil
}

type largeCapRouter struct{ cfg core.DetConfig }

// LargeCapacity returns the Theorem 13 algorithm for B, c ≥ log n with
// B/c = n^{O(1)}: non-preemptive scaled path packing over the space-time
// graph, O(log n)-competitive.
func LargeCapacity() Router { return largeCapRouter{} }

func (largeCapRouter) Name() string { return "even-medina-thm13" }

func (r largeCapRouter) Route(g *Grid, reqs []Request) (*Result, error) {
	res, err := core.RunLargeCapacity(g, reqs, r.cfg)
	if err != nil {
		return nil, err
	}
	return verified(r.Name(), g, reqs, res.Schedules, res.Throughput, res.Throughput, res), nil
}

type policyRouter struct {
	pol     netsim.Policy
	horizon int64
}

// Greedy returns the FIFO greedy baseline (Table 1; Ω(√n) lower bound on
// lines [AKOR03]).
func Greedy() Router { return policyRouter{pol: baseline.Greedy{}} }

// NearestToGo returns the nearest-to-go baseline (optimal on bufferless
// lines, Prop. 12; Θ̃(n^{2/3}) on 2-d grids [AKK09]).
func NearestToGo() Router { return policyRouter{pol: baseline.NearestToGo{}} }

// PolicyWithHorizon wraps a baseline with an explicit simulation horizon.
func PolicyWithHorizon(r Router, horizon int64) Router {
	if p, ok := r.(policyRouter); ok {
		p.horizon = horizon
		return p
	}
	return r
}

func (p policyRouter) Name() string { return p.pol.Name() }

func (p policyRouter) Route(g *Grid, reqs []Request) (*Result, error) {
	if i := grid.ValidateAll(g, reqs); i >= 0 {
		return nil, fmt.Errorf("gridroute: invalid request at index %d", i)
	}
	h := p.horizon
	if h == 0 {
		h = spacetime.SuggestHorizon(g, reqs, 3)
	}
	res := netsim.RunLocal(g, reqs, p.pol, netsim.Model1, h)
	out := &Result{
		Algorithm:  p.pol.Name(),
		Requests:   len(reqs),
		Admitted:   len(reqs),
		Throughput: res.Throughput(),
		Detail:     res,
	}
	return out, nil
}

// DualUpperBound returns a certified upper bound on the optimal fractional
// throughput of the instance within horizon T, plus the number of requests
// the certifying packer accepted, which may exceed OPT (see
// optbound.DualUpperBound). Package optbound's documentation sets out how
// upper stands in for OPT.
func DualUpperBound(g *Grid, reqs []Request, T int64) (upper float64, accepted int) {
	return optbound.DualUpperBound(g, reqs, T)
}

// SuggestHorizon returns a simulation horizon comfortably beyond the last
// useful delivery time for the workload.
func SuggestHorizon(g *Grid, reqs []Request, slack int) int64 {
	return spacetime.SuggestHorizon(g, reqs, slack)
}

// ScenarioParam is one typed parameter of a registered scenario: name,
// documentation, default and validity range.
type ScenarioParam = scenario.Param

// ScenarioInfo describes one registered workload scenario.
type ScenarioInfo struct {
	ID     string
	Title  string
	Tags   []string
	Params []ScenarioParam
}

// Scenarios returns the catalog of registered workload scenarios, sorted
// by ID. Each is runnable via GenerateScenario (and `routesim -scenario`).
func Scenarios() []ScenarioInfo {
	scs := scenario.Registered()
	out := make([]ScenarioInfo, len(scs))
	for i, s := range scs {
		out[i] = ScenarioInfo{
			ID:     s.ID,
			Title:  s.Title,
			Tags:   append([]string(nil), s.Tags...),
			Params: append([]ScenarioParam(nil), s.Params...),
		}
	}
	return out
}

// GenerateScenario builds the grid and request sequence of a registered
// scenario. opts overrides the scenario's typed parameters (unknown names
// and out-of-range values are errors); the implicit "seed" parameter
// selects a different random stream, with generation a pure function of
// (id, opts) — byte-identical on every machine.
//
// The former UniformWorkload/SaturatingWorkload/DeadlineWorkload/
// CrossbarWorkload/ConvoyWorkload helpers were replaced by the scenario
// catalog: e.g. UniformWorkload(g, 200, 128, seed) on a 64-node line is
// now GenerateScenario("uniform", map[string]float64{"n": 64, "reqs": 200,
// "maxt": 128, "seed": float64(seed)}).
func GenerateScenario(id string, opts map[string]float64) (*Grid, []Request, error) {
	return scenario.Generate(id, opts)
}
