package detroute

import (
	"math/rand"
	"testing"

	"gridroute/internal/grid"
	"gridroute/internal/ipp"
	"gridroute/internal/scenario"
	"gridroute/internal/sketch"
	"gridroute/internal/spacetime"
	"gridroute/internal/tiling"
)

// harness builds a line space-time lattice with square tiles of side k and
// an oracle-backed admitter, mirroring what core.RunDeterministic does but
// exposing the internals for targeted tests.
type harness struct {
	g  *grid.Grid
	st *spacetime.Graph
	sk *sketch.Graph
	pk *ipp.Packer
	rt *Router
}

func newHarness(n, b, c int, T int64, k int) *harness {
	g := grid.Line(n, b, c)
	st := spacetime.New(g, T)
	tl := tiling.New(st.Box, []int{k, k}, []int{0, 0})
	sk := sketch.New(st, tl, sketch.Downscaled)
	return &harness{g: g, st: st, sk: sk, pk: ipp.NewDense(4*n+1, sk.Cap, sk.Universe()), rt: New(st, sk)}
}

func (h *harness) admit(t *testing.T, reqs []grid.Request) []Admitted {
	t.Helper()
	var adm []Admitted
	for i := range reqs {
		r := &reqs[i]
		src := h.st.SourcePoint(r)
		wLo, wHi := h.st.DestRay(r)
		route := h.sk.LightestRoute(h.pk, src, r.Dst, wLo, wHi, h.pk.PMax())
		if route == nil {
			continue
		}
		if h.pk.Offer(route.Edges, route.Cost) {
			adm = append(adm, Admitted{Req: r, Route: route})
		}
	}
	return adm
}

func TestSingleStraightRequest(t *testing.T) {
	h := newHarness(32, 3, 3, 128, 4)
	reqs := []grid.Request{{ID: 0, Src: grid.Vec{2}, Dst: grid.Vec{20}, Arrival: 0, Deadline: grid.InfDeadline}}
	adm := h.admit(t, reqs)
	if len(adm) != 1 {
		t.Fatal("not admitted")
	}
	outs, stats := h.rt.Run(adm)
	if !outs[0].Delivered {
		t.Fatalf("lone request must be delivered; dropped in %v", outs[0].DroppedIn)
	}
	// Shortest possible route: 18 steps, delivered at t=18.
	if outs[0].DeliveredAt != 18 {
		t.Fatalf("delivered at %d, want 18 (no contention → straight shot)", outs[0].DeliveredAt)
	}
	if stats.Anomalies != 0 {
		t.Fatalf("anomalies: %d", stats.Anomalies)
	}
}

func TestNearRequestSingleTile(t *testing.T) {
	h := newHarness(32, 3, 3, 128, 8)
	// Source and destination inside one tile row.
	reqs := []grid.Request{{ID: 0, Src: grid.Vec{1}, Dst: grid.Vec{5}, Arrival: 0, Deadline: grid.InfDeadline}}
	adm := h.admit(t, reqs)
	outs, stats := h.rt.Run(adm)
	if !outs[0].Delivered || !outs[0].ReachedLastTile {
		t.Fatal("near request must deliver within its tile")
	}
	if stats.Anomalies != 0 {
		t.Fatal("anomalies on a near request")
	}
}

// GLL82 preemption on track 1: two first segments on the same line; the one
// ending later is preempted when they meet.
func TestFirstSegmentPreemption(t *testing.T) {
	h := newHarness(64, 3, 3, 256, 4)
	// Same source point, same direction: immediate conflict; the interval
	// ending first (closer bend/destination tile) must win.
	reqs := []grid.Request{
		{ID: 0, Src: grid.Vec{0}, Dst: grid.Vec{40}, Arrival: 0, Deadline: grid.InfDeadline},
		{ID: 1, Src: grid.Vec{0}, Dst: grid.Vec{12}, Arrival: 0, Deadline: grid.InfDeadline},
	}
	adm := h.admit(t, reqs)
	if len(adm) != 2 {
		t.Skipf("admission kept %d of 2", len(adm))
	}
	outs, _ := h.rt.Run(adm)
	delivered := 0
	for _, o := range outs {
		if o.Delivered {
			delivered++
		}
	}
	if delivered == 0 {
		t.Fatal("at least one of the conflicting packets must survive")
	}
	// The loser must be recorded with a sensible part.
	for i, o := range outs {
		if !o.Delivered && o.DroppedIn != PartFirst && o.DroppedIn != PartLastTile && o.DroppedIn != PartLast {
			t.Fatalf("req %d dropped in unexpected part %v", i, o.DroppedIn)
		}
	}
}

// The paths of delivered packets never overlap on the same track: replaying
// per-edge claims must stay within 3 units (B = c = 3).
func TestTrackDiscipline(t *testing.T) {
	h := newHarness(48, 3, 3, 256, 5)
	rng := rand.New(rand.NewSource(2))
	reqs := scenario.Saturating(h.g, 6, 2, rng)
	adm := h.admit(t, reqs)
	outs, stats := h.rt.Run(adm)
	if stats.Anomalies != 0 {
		t.Fatalf("anomalies: %d", stats.Anomalies)
	}
	use := map[[2]int]int{}
	cur := make([]int, 2)
	for _, o := range outs {
		if !o.Delivered {
			continue
		}
		copy(cur, o.Path.Start)
		for _, a := range o.Path.Axes {
			key := [2]int{h.st.Box.Index(cur), int(a)}
			use[key]++
			if use[key] > 3 {
				t.Fatalf("edge used %d times > B=c=3", use[key])
			}
			cur[a]++
		}
	}
	if stats.Delivered == 0 {
		t.Fatal("nothing delivered under saturation")
	}
}

// Chain invariant (Sec. 5.3): delivered ⊆ reached-last-tile ⊆ injected, and
// the loss accounting adds up.
func TestLossAccounting(t *testing.T) {
	h := newHarness(64, 3, 3, 384, 5)
	rng := rand.New(rand.NewSource(3))
	reqs := scenario.Uniform(h.g, 300, 128, rng)
	adm := h.admit(t, reqs)
	outs, stats := h.rt.Run(adm)
	if stats.Injected != len(adm) {
		t.Fatalf("injected %d != admitted %d", stats.Injected, len(adm))
	}
	total := stats.Delivered
	for _, d := range stats.DroppedBy {
		total += d
	}
	if total != stats.Injected {
		t.Fatalf("accounting leak: delivered %d + drops %v != injected %d", stats.Delivered, stats.DroppedBy, stats.Injected)
	}
	reached := 0
	for _, o := range outs {
		if o.ReachedLastTile {
			reached++
		}
		if o.Delivered && !o.ReachedLastTile {
			t.Fatal("delivered without reaching last tile")
		}
	}
	if reached != stats.ReachedLastTile {
		t.Fatalf("reached mismatch %d != %d", reached, stats.ReachedLastTile)
	}
}

// Parts are used in the documented order: a packet dropped in the last tile
// must have a path that actually enters its final tile.
func TestDropPartsConsistent(t *testing.T) {
	h := newHarness(48, 3, 3, 256, 4)
	rng := rand.New(rand.NewSource(4))
	reqs := scenario.Saturating(h.g, 8, 3, rng)
	adm := h.admit(t, reqs)
	outs, _ := h.rt.Run(adm)
	for i, o := range outs {
		if o.Delivered {
			continue
		}
		if o.DroppedIn == PartLastTile && !o.ReachedLastTile {
			t.Fatalf("req %d: dropped in last tile without reaching it", i)
		}
	}
}

func TestPartString(t *testing.T) {
	names := map[Part]string{
		PartFirst: "first-segment", PartInternal: "internal",
		PartLast: "last-segment", PartLastTile: "last-tile",
	}
	for p, want := range names {
		if p.String() != want {
			t.Fatalf("%d.String() = %q", p, p.String())
		}
	}
}
