// Command routesim runs one routing algorithm on one workload scenario and
// prints a summary — the quickest way to poke at the library.
//
// Workloads come from the scenario registry (internal/scenario): named,
// self-describing generators with typed parameters, overridden per run
// with -p key=val. Generation is byte-deterministic in (scenario, params).
//
// Usage examples:
//
//	go run ./cmd/routesim -list-scenarios
//	go run ./cmd/routesim -alg det  -scenario uniform -p n=64 -p reqs=200
//	go run ./cmd/routesim -alg rand -scenario zipf-hotspot -p b=1 -p c=1 -gamma 0.5
//	go run ./cmd/routesim -alg greedy -scenario convoy -p n=64 -p c=1
//	go run ./cmd/routesim -scenario lattice3d-uniform -dump   # print the requests
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"gridroute"
	"gridroute/internal/scenario"
)

// algorithms maps -alg names to router constructors. seed and gamma feed
// the randomized algorithm only.
var algorithms = map[string]func(seed int64, gamma float64) gridroute.Router{
	"det":    func(int64, float64) gridroute.Router { return gridroute.Deterministic() },
	"rand":   func(seed int64, gamma float64) gridroute.Router { return gridroute.RandomizedWith(seed, gamma, 0) },
	"thm13":  func(int64, float64) gridroute.Router { return gridroute.LargeCapacity() },
	"greedy": func(int64, float64) gridroute.Router { return gridroute.Greedy() },
	"ntg":    func(int64, float64) gridroute.Router { return gridroute.NearestToGo() },
}

func algNames() string {
	names := make([]string, 0, len(algorithms))
	for name := range algorithms {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus process-global state: it parses args, generates the
// scenario, routes it, and returns the exit code (0 success, 1 routing
// failure or replay violations in the routed schedules, 2 usage error —
// unknown algorithm, scenario or parameter).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("routesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	alg := fs.String("alg", "det", "algorithm: "+algNames())
	sc := fs.String("scenario", "uniform", "workload scenario ID (see -list-scenarios)")
	params := scenario.ParamFlags{}
	fs.Var(params, "p", "scenario parameter override key=val (repeatable)")
	seed := fs.Int64("seed", 0, "rng seed for scenario generation and the randomized algorithm (0 = scenario default stream)")
	gamma := fs.Float64("gamma", 0, "randomized algorithm sparsification γ (0 = paper's 200)")
	list := fs.Bool("list-scenarios", false, "list registered scenarios with their parameters and exit")
	dump := fs.Bool("dump", false, "print the generated requests instead of routing (determinism witness)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, info := range gridroute.Scenarios() {
			fmt.Fprintf(stdout, "%-20s %s [%s]\n", info.ID, info.Title, strings.Join(info.Tags, " "))
			for _, p := range info.Params {
				fmt.Fprintf(stdout, "    -p %-12s %v (default) — %s\n", p.Name, p.Default, p.Doc)
			}
		}
		return 0
	}

	mkRouter, ok := algorithms[*alg]
	if !ok {
		fmt.Fprintf(stderr, "unknown algorithm %q (known: %s)\n", *alg, algNames())
		return 2
	}
	if *seed != 0 {
		// Parameters travel as float64; refuse seeds the conversion would
		// silently collapse (distinct seeds must name distinct streams).
		if int64(float64(*seed)) != *seed {
			fmt.Fprintf(stderr, "seed %d exceeds exact float64 range (±2^53); pick a smaller seed\n", *seed)
			return 2
		}
		if _, dup := params["seed"]; !dup {
			params["seed"] = float64(*seed)
		}
	}

	g, reqs, err := gridroute.GenerateScenario(*sc, params)
	if err != nil {
		// Unknown scenario IDs and bad parameters are usage errors; the
		// message already lists the valid choices.
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "scenario    %s (%d requests, grid %v, B=%d, c=%d)\n",
		*sc, len(reqs), g.Dims, g.B, g.C)

	if *dump {
		for i := range reqs {
			fmt.Fprintf(stdout, "%v\n", &reqs[i])
		}
		return 0
	}

	res, err := mkRouter(*seed, *gamma).Route(g, reqs)
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}
	fmt.Fprintf(stdout, "algorithm   %s\n", res.Algorithm)
	fmt.Fprintf(stdout, "requests    %d\n", res.Requests)
	fmt.Fprintf(stdout, "admitted    %d\n", res.Admitted)
	fmt.Fprintf(stdout, "delivered   %d\n", res.Throughput)
	fmt.Fprintf(stdout, "violations  %d\n", len(res.Violations))
	T := gridroute.SuggestHorizon(g, reqs, 3)
	upper, _ := gridroute.DualUpperBound(g, reqs, T)
	fmt.Fprintf(stdout, "OPT ≤ %.1f (certified dual bound)\n", upper)
	if res.Throughput > 0 {
		fmt.Fprintf(stdout, "certified competitive ratio ≤ %.2f\n", upper/float64(res.Throughput))
	}
	if len(res.Violations) > 0 {
		fmt.Fprintf(stderr, "routesim: check failed: %d replay violations, first: %s\n", len(res.Violations), res.Violations[0])
		return 1
	}
	return 0
}
