package engine_test

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"gridroute/internal/core"
	"gridroute/internal/engine"
	"gridroute/internal/grid"
	"gridroute/internal/scenario"
	"gridroute/internal/spacetime"
)

// TestDetailedRoutingGolden pins detailed routing (package detroute) bit for
// bit through both engine entries, the batch Run that every batch run takes
// and a one-producer stream through Admit, on the same instances: each in-regime
// catalog scenario at seed 1, a bufferless line as experiment E3 builds it,
// a perfbench-stream-shaped 16×16 instance, and uniform instances on a
// 64×64 grid and a 40×40×40 lattice. The catalog's d ≥ 2 scenarios route
// every packet within one tile; the last two are several tiles wide, so
// their routes bend and reach the knock-knee rules in three and four axes.
// The digest covers every admitted packet's outcome (delivered, delivery
// time, on time, part dropped in, reached last tile, walked path) and the
// routing stats. The digests were recorded before detailed routing tracked
// grid nodes and tiles incrementally, the last two before it resolved a
// packet alone at its node inline, and all of them while batch runs still
// streamed through Admit and allocated their working memory afresh.
//
// Each Run result is released after its digest, so its workspace (arena,
// admitted list, detailed-routing slabs) goes back to the pool, and the
// instances are then routed through Run again in reverse order: every
// instance but the first and the last then runs in memory an instance of
// another size and shape left behind. The race detector makes the pool drop
// a random share of what is put back, so under -race both fresh and reused
// workspaces run.
func TestDetailedRoutingGolden(t *testing.T) {
	insts := goldenInstances(t)
	want := map[string]uint64{
		"bit-reversal":        0x6bd4e28965188339,
		"convoy-rate":         0xd02dcfa0a132a3cd,
		"crossbar":            0x4a1a8f3fa77e1363,
		"heavy-pareto":        0xaed5afca094caddf,
		"hotspot":             0xfb6515820183a4ef,
		"lattice3d-hotspot":   0x27cc291eedad08d9,
		"lattice3d-uniform":   0x3dda677b763a17a3,
		"markov-onoff":        0xc794b6ea6020fd9b,
		"permutation":         0xb45fd30b42572c6c,
		"saturating":          0x239973e37cf9fa69,
		"saturating-deadline": 0x92f81cb1d7132e4c,
		"transpose":           0x44e10d2e2d506395,
		"uniform":             0x38ab3aee2cd65f75,
		"uniform-deadline":    0x8537649beb031c2e,
		"zipf-hotspot":        0xf0f54e82c4e9c95a,
		"bufferless-line":     0x8828dfdf10aba808,
		"stream-16x16":        0xfcbf7c833d2bcfd6,
		"grid-64x64":          0x657eab7eddf6d732,
		"lattice-40x40x40":    0xadeee775371ad04d,
	}
	if len(insts) != len(want) {
		t.Errorf("%d instances, %d recorded digests", len(insts), len(want))
	}
	check := func(in instance, via string, res *engine.Result) {
		t.Helper()
		w, ok := want[in.name]
		if got := outcomeDigest(res); !ok || got != w {
			t.Errorf("%s via %s: %d admitted, %d delivered, stats %+v: digest %#x, want %#x",
				in.name, via, len(res.Admitted), res.RouteStats.Delivered, res.RouteStats, got, w)
		}
	}
	for _, in := range insts {
		res := routeBatch(t, in.g, in.reqs)
		check(in, "Run", res)
		res.Release()
		if res.Admitted != nil || res.Outcomes != nil || res.Schedules != nil {
			t.Errorf("%s: Release left Admitted, Outcomes or Schedules set", in.name)
		}
		res = routeStream(t, in.g, in.reqs)
		res.Release() // a streaming engine's result holds no workspace: a no-op
		check(in, "stream", res)
	}
	for _, in := range slices.Backward(insts) {
		res := routeBatch(t, in.g, in.reqs)
		check(in, "Run in reverse order", res)
		res.Release()
	}
}

type instance struct {
	name string
	g    *grid.Grid
	reqs []grid.Request
}

// goldenInstances builds TestDetailedRoutingGolden's instances.
func goldenInstances(t *testing.T) []instance {
	t.Helper()
	var insts []instance
	for _, sc := range scenario.Registered() {
		g, reqs, err := scenario.Generate(sc.ID, map[string]float64{"seed": 1})
		if err != nil {
			t.Fatal(err)
		}
		if g.C >= 3 && (g.B == 0 || g.B >= 3) {
			insts = append(insts, instance{sc.ID, g, reqs})
		}
	}
	line := grid.Line(64, 0, 3)
	insts = append(insts, instance{"bufferless-line", line, scenario.Uniform(line, 4*64, 2*64, rand.New(rand.NewSource(1)))})
	for _, u := range []struct {
		name   string
		params map[string]float64
	}{
		{"stream-16x16", map[string]float64{"d": 2, "n": 16, "reqs": 4000, "maxt": 1000, "seed": 1}},
		{"grid-64x64", map[string]float64{"d": 2, "n": 64, "seed": 1}},
		{"lattice-40x40x40", map[string]float64{"d": 3, "n": 40, "seed": 1}},
	} {
		g, reqs, err := scenario.Generate("uniform", u.params)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, instance{u.name, g, reqs})
	}
	return insts
}

// TestFinishSchedulesMatchPaths: on the golden instances, Finish gives
// exactly the on-time deliveries a schedule, each equal to what
// spacetime.PathToSchedule builds from the walked path, and the schedules
// cut from Finish's shared slab do not alias: an append to one schedule's
// Src or Moves leaves the next schedule unchanged. The golden digest covers
// the walked paths, not the schedules.
func TestFinishSchedulesMatchPaths(t *testing.T) {
	for _, in := range goldenInstances(t) {
		res := routeBatch(t, in.g, in.reqs)
		st := spacetime.New(in.g, res.Horizon)
		var prev *spacetime.Schedule
		for j, o := range res.Outcomes {
			s := res.Schedules[j]
			if (s != nil) != (o.Delivered && o.OnTime) {
				t.Fatalf("%s: packet %d: delivered %v, on time %v, has schedule %v", in.name, j, o.Delivered, o.OnTime, s != nil)
			}
			if s == nil {
				continue
			}
			want := st.PathToSchedule(res.Admitted[j].Req, o.Path)
			if s.Req != want.Req || !slices.Equal(s.Src, want.Src) || s.StartT != want.StartT || !slices.Equal(s.Moves, want.Moves) {
				t.Fatalf("%s: packet %d: schedule %+v, want %+v", in.name, j, *s, *want)
			}
			if prev != nil {
				src, moves := slices.Clone(s.Src), slices.Clone(s.Moves)
				prev.Src = append(prev.Src, -1)
				prev.Moves = append(prev.Moves, spacetime.Hold)
				if !slices.Equal(s.Src, src) || !slices.Equal(s.Moves, moves) {
					t.Fatalf("%s: packet %d: an append to the previous schedule changed this one to Src %v, Moves %v", in.name, j, s.Src, s.Moves)
				}
			}
			prev = s
		}
		if prev == nil {
			t.Fatalf("%s: no on-time delivery", in.name)
		}
	}
}

// routeBatch routes reqs through engine.Run with the parameters
// core.RunDeterministic derives, as every batch run does.
func routeBatch(t *testing.T, g *grid.Grid, reqs []grid.Request) *engine.Result {
	t.Helper()
	pmax := core.PMaxDet(g)
	res, err := engine.Run(g, reqs, spacetime.SuggestHorizon(g, reqs, 3), pmax, core.TileSideDet(pmax))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// routeStream streams reqs from one producer through a fresh engine, with
// the same parameters and Seq = index as routeBatch, and returns the
// finished result.
func routeStream(t *testing.T, g *grid.Grid, reqs []grid.Request) *engine.Result {
	t.Helper()
	pmax := core.PMaxDet(g)
	eng, err := engine.New(g, engine.Options{
		Horizon: spacetime.SuggestHorizon(g, reqs, 3), PMax: pmax, TileSide: core.TileSideDet(pmax), Queue: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := range reqs {
		pkt := engine.PacketOf(&reqs[i])
		pkt.Seq = i
		if _, err := eng.Admit(ctx, pkt); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// outcomeDigest is an FNV-64a digest of every admitted packet's detailed
// routing outcome, in admission order, followed by the routing stats.
func outcomeDigest(res *engine.Result) uint64 {
	h := fnv.New64a()
	for j, o := range res.Outcomes {
		putInt(h, int64(res.Admitted[j].Req.ID))
		putBool(h, o.Delivered)
		putInt(h, o.DeliveredAt)
		putBool(h, o.OnTime)
		putInt(h, int64(o.DroppedIn))
		putBool(h, o.ReachedLastTile)
		putInt(h, int64(len(o.Path.Start)))
		for _, x := range o.Path.Start {
			putInt(h, int64(x))
		}
		putInt(h, int64(len(o.Path.Axes)))
		h.Write(o.Path.Axes)
	}
	s := res.RouteStats
	for _, x := range []int{s.Injected, s.Delivered, s.ReachedLastTile, s.DroppedBy[0], s.DroppedBy[1], s.DroppedBy[2], s.DroppedBy[3], s.Anomalies} {
		putInt(h, int64(x))
	}
	return h.Sum64()
}

func putInt(h hash.Hash64, x int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(x))
	h.Write(b[:])
}

func putBool(h hash.Hash64, v bool) {
	if v {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
}
