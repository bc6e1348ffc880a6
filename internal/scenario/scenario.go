// Package scenario is the registry of named, self-describing workload
// scenarios: each bundles a grid construction and a request generator
// behind a stable ID, typed parameter specs (defaults, ranges, validation)
// and deterministic per-ID seeding, mirroring the experiment registry of
// internal/experiments.
//
// A scenario is resolved in two steps: Resolve(id, overrides) validates the
// overrides against the scenario's parameter specs and produces a Spec;
// Generate runs the scenario's generator on that Spec and validates the
// output (every request in bounds, destination reachable, arrivals sorted,
// IDs 0..len-1). All randomness is drawn from Spec.RNG, whose seed is a
// pure function of (scenario ID, seed parameter) via SeedFor — generation
// is byte-deterministic at any concurrency level.
package scenario

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"

	"gridroute/internal/grid"
)

// Param is one typed scenario parameter: a name, documentation, a default,
// and an inclusive validity range. Int marks parameters that must be
// integral (the common case: grid sides, request counts, rounds).
type Param struct {
	Name    string  `json:"name"`
	Doc     string  `json:"doc"`
	Default float64 `json:"default"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Int     bool    `json:"int,omitempty"`
}

// check validates one value against the spec.
func (p Param) check(v float64) error {
	if math.IsNaN(v) || v < p.Min || v > p.Max {
		return fmt.Errorf("scenario: %s=%v out of range [%v, %v]", p.Name, v, p.Min, p.Max)
	}
	if p.Int && v != math.Trunc(v) {
		return fmt.Errorf("scenario: %s=%v must be an integer", p.Name, v)
	}
	return nil
}

// Scenario is one registered workload: a stable ID (the anchor for seeding,
// selection and benchmarks), a human title, coarse tags for selection, the
// parameter specs, and the generator. Generate must draw every random bit
// from the Spec's RNG and must not retain or mutate global state, so that a
// fixed Spec always yields byte-identical requests.
type Scenario struct {
	ID     string
	Title  string
	Tags   []string
	Params []Param
	// Generate builds the grid and the request sequence for a resolved
	// Spec.
	//
	// Invariant: the returned requests are already in online arrival order —
	// non-decreasing Arrival, IDs 0..len-1 assigned in that order. The
	// package-level Generate asserts this once after every generator run, so
	// downstream consumers (the batch runner, the streaming engine's
	// in-order feed, detailed routing) must NOT re-sort the slice;
	// re-sorting is at best a wasted pass and at worst, with an unstable
	// sort, a silent reordering of same-arrival requests.
	Generate func(Spec) (*grid.Grid, []grid.Request, error)
}

// Param returns the parameter spec with the given name.
func (s Scenario) Param(name string) (Param, bool) {
	for _, p := range s.Params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// Spec is a resolved scenario instance: every parameter bound to a
// validated value and the RNG seed fixed. Specs are produced by Resolve.
type Spec struct {
	// ID is the scenario's registry ID.
	ID string
	// Seed is the derived RNG seed: SeedFor(ID) by default, or
	// SeedFor(ID, "seed=<v>") when the caller overrides the implicit seed
	// parameter — never the raw user value, so distinct scenarios never
	// share a stream even for equal seeds.
	Seed int64

	vals map[string]float64
}

// Float returns the resolved value of a parameter. It panics on unknown
// names: generators asking for parameters they did not declare is a
// programming error.
func (s Spec) Float(name string) float64 {
	v, ok := s.vals[name]
	if !ok {
		panic(fmt.Sprintf("scenario %s: undeclared parameter %q", s.ID, name))
	}
	return v
}

// Int returns a parameter as an int.
func (s Spec) Int(name string) int { return int(s.Float(name)) }

// Int64 returns a parameter as an int64.
func (s Spec) Int64(name string) int64 { return int64(s.Float(name)) }

// RNG returns a fresh deterministic generator for the Spec. Every call
// returns an independent generator over the same stream.
func (s Spec) RNG() *rand.Rand { return rand.New(rand.NewSource(s.Seed)) }

// SeedFor derives the deterministic seed for a scenario ID and an optional
// chain of sub-keys (FNV-1a over the NUL-joined parts) — the same
// convention the experiment runner uses, so "uniform" names the same
// request stream on every machine and at any -j.
func SeedFor(id string, subkeys ...string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	for _, k := range subkeys {
		h.Write([]byte{0})
		h.Write([]byte(k))
	}
	return int64(h.Sum64())
}

var registry []Scenario

// Register adds a scenario to the package registry. It is called from init
// functions of the per-family files; duplicate IDs, missing generators and
// malformed parameter specs are programming errors and panic immediately.
// The registry is kept sorted by ID rather than init order, which depends
// on source file names.
func Register(s Scenario) {
	if s.ID == "" || s.Generate == nil {
		panic("scenario: Register needs an ID and a Generate function")
	}
	for _, have := range registry {
		if have.ID == s.ID {
			panic(fmt.Sprintf("scenario: duplicate ID %q", s.ID))
		}
	}
	seen := map[string]bool{"seed": true} // implicit parameter, not declarable
	for _, p := range s.Params {
		if p.Name == "" || seen[p.Name] {
			panic(fmt.Sprintf("scenario %s: empty or duplicate parameter %q", s.ID, p.Name))
		}
		seen[p.Name] = true
		if err := p.check(p.Default); err != nil {
			panic(fmt.Sprintf("scenario %s: default violates own spec: %v", s.ID, err))
		}
	}
	registry = append(registry, s)
	sort.SliceStable(registry, func(i, j int) bool { return registry[i].ID < registry[j].ID })
}

// Registered returns all scenarios sorted by ID. The slice is a copy;
// callers may reorder or filter it freely.
func Registered() []Scenario {
	out := make([]Scenario, len(registry))
	copy(out, registry)
	return out
}

// IDs returns the registered scenario IDs in sorted order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, s := range registry {
		ids[i] = s.ID
	}
	return ids
}

// Lookup returns the scenario with the given ID.
func Lookup(id string) (Scenario, bool) {
	for _, s := range registry {
		if s.ID == id {
			return s, true
		}
	}
	return Scenario{}, false
}

// Resolve validates the overrides against the scenario's parameter specs
// and returns a fully bound Spec. Unknown parameter names and out-of-range
// values are errors that name the valid choices — never silently ignored.
// The implicit "seed" parameter is accepted by every scenario and folded
// into the Spec's derived seed.
func Resolve(id string, overrides map[string]float64) (Spec, error) {
	sc, ok := Lookup(id)
	if !ok {
		return Spec{}, fmt.Errorf("scenario: unknown scenario %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	spec := Spec{ID: id, Seed: SeedFor(id), vals: make(map[string]float64, len(sc.Params))}
	for _, p := range sc.Params {
		spec.vals[p.Name] = p.Default
	}
	// Deterministic error messages: apply overrides in sorted key order.
	keys := make([]string, 0, len(overrides))
	for k := range overrides {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := overrides[k]
		if k == "seed" {
			spec.Seed = SeedFor(id, fmt.Sprintf("seed=%v", v))
			continue
		}
		p, ok := sc.Param(k)
		if !ok {
			return Spec{}, fmt.Errorf("scenario %s: unknown parameter %q (known: %s)", id, k, paramNames(sc))
		}
		if err := p.check(v); err != nil {
			return Spec{}, err
		}
		spec.vals[k] = v
	}
	return spec, nil
}

func paramNames(sc Scenario) string {
	names := make([]string, len(sc.Params)+1)
	for i, p := range sc.Params {
		names[i] = p.Name
	}
	names[len(sc.Params)] = "seed"
	return strings.Join(names, ", ")
}

// Generate resolves and runs a scenario, then validates the output: every
// request must be feasible on the returned grid (in bounds, destination
// reachable, deadline achievable), arrivals non-decreasing, and IDs
// assigned 0..len-1 in arrival order. A generator violating its own
// contract is reported as an error, not returned to the caller.
func Generate(id string, overrides map[string]float64) (*grid.Grid, []grid.Request, error) {
	spec, err := Resolve(id, overrides)
	if err != nil {
		return nil, nil, err
	}
	sc, _ := Lookup(id)
	g, reqs, err := sc.Generate(spec)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario %s: %w", id, err)
	}
	if g == nil {
		return nil, nil, fmt.Errorf("scenario %s: generator returned no grid", id)
	}
	// The arrival-order invariant is asserted here, once, for every
	// generator: callers are entitled to consume the slice as the online
	// order without re-sorting.
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival < reqs[i-1].Arrival {
			return nil, nil, fmt.Errorf("scenario %s: requests not arrival-sorted at index %d (Generate invariant)", id, i)
		}
	}
	if i := grid.ValidateAll(g, reqs); i >= 0 {
		return nil, nil, fmt.Errorf("scenario %s: invalid request at index %d: %v", id, i, &reqs[i])
	}
	for i := range reqs {
		if reqs[i].ID != i {
			return nil, nil, fmt.Errorf("scenario %s: request %d has ID %d (IDs must follow arrival order)", id, i, reqs[i].ID)
		}
	}
	return g, reqs, nil
}

// Digest returns a FNV-1a fingerprint of a generated instance (grid shape
// plus every request field). Experiment tables include it so the CI
// determinism gates (-j 1 vs -j N diffs) also certify that scenario
// generation is byte-stable.
func Digest(g *grid.Grid, reqs []grid.Request) uint64 {
	h := fnv.New64a()
	write := func(x int64) {
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, d := range g.Dims {
		write(int64(d))
	}
	write(int64(g.B))
	write(int64(g.C))
	for i := range reqs {
		write(int64(reqs[i].ID))
		for _, x := range reqs[i].Src {
			write(int64(x))
		}
		for _, x := range reqs[i].Dst {
			write(int64(x))
		}
		write(reqs[i].Arrival)
		write(reqs[i].Deadline)
	}
	return h.Sum64()
}
