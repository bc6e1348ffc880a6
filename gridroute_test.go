package gridroute

import (
	"testing"
)

// genScenario is the test-side shorthand for GenerateScenario with
// overrides; it fails the test on any resolution/generation error.
func genScenario(t *testing.T, id string, opts map[string]float64) (*Grid, []Request) {
	t.Helper()
	g, reqs, err := GenerateScenario(id, opts)
	if err != nil {
		t.Fatal(err)
	}
	return g, reqs
}

func TestPublicAPIDeterministic(t *testing.T) {
	g, reqs := genScenario(t, "uniform", map[string]float64{"n": 48, "reqs": 150, "maxt": 96, "seed": 1})
	res, err := Deterministic().Route(g, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations[0])
	}
	if res.Throughput == 0 || res.Throughput > res.Admitted {
		t.Fatalf("throughput %d / admitted %d", res.Throughput, res.Admitted)
	}
	upper, accepted := DualUpperBound(g, reqs, SuggestHorizon(g, reqs, 3))
	if float64(res.Throughput) > upper {
		t.Fatalf("throughput %d above certified bound %v", res.Throughput, upper)
	}
	if accepted == 0 {
		t.Fatal("certifying packer accepted nothing")
	}
}

func TestPublicAPIRandomized(t *testing.T) {
	g, reqs := genScenario(t, "uniform", map[string]float64{"n": 64, "b": 1, "c": 1, "reqs": 400, "maxt": 128, "seed": 2})
	res, err := RandomizedWith(7, 0.5, 1).Route(g, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations[0])
	}
	if res.Throughput == 0 {
		t.Fatal("no randomized throughput in engineering mode")
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	g, reqs := genScenario(t, "uniform", map[string]float64{"n": 32, "b": 2, "c": 1, "reqs": 60, "maxt": 64, "seed": 3})
	for _, r := range []Router{Greedy(), NearestToGo()} {
		res, err := r.Route(g, reqs)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if res.Throughput == 0 {
			t.Fatalf("%s delivered nothing", r.Name())
		}
	}
}

func TestPublicAPILargeCapacity(t *testing.T) {
	g, reqs := genScenario(t, "saturating", map[string]float64{"n": 16, "b": 64, "c": 64, "rounds": 4, "burst": 6, "seed": 4})
	res, err := LargeCapacity().Route(g, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations[0])
	}
	if res.Throughput != res.Admitted {
		t.Fatal("Thm 13 is non-preemptive")
	}
}

func TestPublicAPICrossbar(t *testing.T) {
	g, reqs := genScenario(t, "crossbar", map[string]float64{"n": 8, "rounds": 12, "load": 0.5, "seed": 5})
	res, err := Deterministic().Route(g, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations[0])
	}
}

func TestPublicAPIDeadlines(t *testing.T) {
	g, reqs := genScenario(t, "uniform-deadline", map[string]float64{"n": 32, "reqs": 80, "maxt": 64, "slack": 2, "jitter": 8, "seed": 6})
	res, err := Deterministic().Route(g, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations[0])
	}
}

func TestPublicAPIScenarioCatalog(t *testing.T) {
	scs := Scenarios()
	if len(scs) < 14 {
		t.Fatalf("catalog has %d scenarios, want ≥ 14", len(scs))
	}
	if _, _, err := GenerateScenario("no-such", nil); err == nil {
		t.Fatal("unknown scenario must error")
	}
	if _, _, err := GenerateScenario("uniform", map[string]float64{"bogus": 1}); err == nil {
		t.Fatal("unknown parameter must error")
	}
}

func TestPublicAPIErrors(t *testing.T) {
	g := NewLine(16, 1, 1)
	if _, err := Deterministic().Route(g, nil); err == nil {
		t.Fatal("B=c=1 must error for the deterministic algorithm")
	}
	g2 := NewGrid([]int{4, 4}, 1, 1)
	if _, err := Randomized(1).Route(g2, nil); err == nil {
		t.Fatal("randomized on 2-d must error")
	}
}
