package engine_test

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"gridroute/internal/core"
	"gridroute/internal/engine"
	"gridroute/internal/grid"
	"gridroute/internal/scenario"
	"gridroute/internal/spacetime"
)

// TestDetailedRoutingGolden pins detailed routing (package detroute) bit for
// bit through the engine, the path every batch run takes: each in-regime
// catalog scenario at seed 1, a bufferless line as experiment E3 builds it,
// and a perfbench-stream-shaped 16×16 instance. The digest covers every
// admitted packet's outcome (delivered, delivery time, on time, part dropped
// in, reached last tile, walked path) and the routing stats; the digests
// were recorded before detailed routing tracked grid nodes and tiles
// incrementally.
func TestDetailedRoutingGolden(t *testing.T) {
	type instance struct {
		name string
		g    *grid.Grid
		reqs []grid.Request
	}
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
	g, reqs, err := scenario.Generate("uniform", map[string]float64{"d": 2, "n": 16, "reqs": 4000, "maxt": 1000, "seed": 1})
	if err != nil {
		t.Fatal(err)
	}
	insts = append(insts, instance{"stream-16x16", g, reqs})

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
	}
	if len(insts) != len(want) {
		t.Errorf("%d instances, %d recorded digests", len(insts), len(want))
	}
	for _, in := range insts {
		res := routeBatch(t, in.g, in.reqs)
		got := outcomeDigest(res)
		if w, ok := want[in.name]; !ok || got != w {
			t.Errorf("%s: %d admitted, %d delivered, stats %+v: digest %#x, want %#x",
				in.name, len(res.Admitted), res.RouteStats.Delivered, res.RouteStats, got, w)
		}
	}
}

// routeBatch streams reqs through a fresh engine as core.RunDeterministic
// does and returns the finished result.
func routeBatch(t *testing.T, g *grid.Grid, reqs []grid.Request) *engine.Result {
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
