package experiments

import (
	"context"
	"fmt"
	"regexp"
	"sort"
	"strings"
)

// Experiment is one registered reproduction: a stable ID (the anchor for
// seeding, selection and benchmarks), a human title, coarse tags for
// selection, and the Run function. Run is a pure function of (ctx, Config):
// it reports skipped sub-cases as errors wrapping ErrSkipped, honours ctx
// cancellation between sub-cases (Sweep), and never depends on
// scheduling order.
type Experiment struct {
	ID    string
	Title string
	Tags  []string
	Run   func(ctx context.Context, cfg Config) (Report, error)
}

var registry []Experiment

// Register adds an experiment to the package registry. It is called from
// the init functions of the per-experiment files; duplicate IDs are a
// programming error and panic immediately. The registry is kept in
// canonical report order (T* tables first, then E* by number) rather than
// init order, which depends on source file names.
func Register(e Experiment) {
	if e.ID == "" || e.Run == nil {
		panic("experiments: Register needs an ID and a Run function")
	}
	for _, have := range registry {
		if have.ID == e.ID {
			panic(fmt.Sprintf("experiments: duplicate ID %q", e.ID))
		}
	}
	registry = append(registry, e)
	sort.SliceStable(registry, func(i, j int) bool {
		return canonicalLess(registry[i].ID, registry[j].ID)
	})
}

// canonicalLess orders experiment IDs as the paper's reports do: T1, T2,
// then E1-E3, E4, … E13 by leading number.
func canonicalLess(a, b string) bool {
	ka, na := idKey(a)
	kb, nb := idKey(b)
	if ka != kb {
		return ka < kb
	}
	if na != nb {
		return na < nb
	}
	return a < b
}

// idKey splits an ID like "E1-E3" into a family rank (T=0, E=1, other=2)
// and its leading number.
func idKey(id string) (family, num int) {
	family = 2
	switch {
	case strings.HasPrefix(id, "T"):
		family = 0
	case strings.HasPrefix(id, "E"):
		family = 1
	}
	for i := 1; i < len(id) && id[i] >= '0' && id[i] <= '9'; i++ {
		num = num*10 + int(id[i]-'0')
	}
	return family, num
}

// Registered returns all experiments in canonical order. The slice is a
// copy; callers may reorder or filter it freely.
func Registered() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// IDs returns the registered experiment IDs in canonical order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	return ids
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Select returns the experiments whose ID or any tag matches the regular
// expression, preserving canonical order. An empty pattern selects
// everything (mirroring `go test -run`).
func Select(pattern string) ([]Experiment, error) {
	if pattern == "" {
		return Registered(), nil
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("experiments: bad -run pattern %q: %w", pattern, err)
	}
	var out []Experiment
	for _, e := range registry {
		if re.MatchString(e.ID) || matchesAny(re, e.Tags) {
			out = append(out, e)
		}
	}
	return out, nil
}

func matchesAny(re *regexp.Regexp, ss []string) bool {
	for _, s := range ss {
		if re.MatchString(s) {
			return true
		}
	}
	return false
}

// Tags returns the sorted union of all registered tags (for -run help text).
func Tags() []string {
	set := map[string]bool{}
	for _, e := range registry {
		for _, t := range e.Tags {
			set[t] = true
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
