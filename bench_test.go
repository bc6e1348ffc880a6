// Benchmarks: one testing.B target per experiment id of DESIGN.md §5, plus
// the BenchmarkHotPath family feeding the BENCH_hotpath.json perf
// trajectory (see README "Performance").
//
// Each experiment benchmark regenerates the corresponding table/figure
// measurement of Even–Medina (SPAA 2011) and reports the headline number as
// a custom metric, so `go test -bench=. -benchmem` reproduces the paper's
// artifacts end to end. EXPERIMENTS.md holds the full sweeps
// (cmd/experiments). All benchmarks report allocations and exclude their
// setup from the timed region.
package gridroute

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"

	"gridroute/internal/baseline"
	"gridroute/internal/core"
	"gridroute/internal/engine"
	"gridroute/internal/experiments"
	"gridroute/internal/grid"
	"gridroute/internal/ipp"
	"gridroute/internal/lattice"
	"gridroute/internal/netsim"
	"gridroute/internal/optbound"
	"gridroute/internal/render"
	"gridroute/internal/scenario"
	"gridroute/internal/sketch"
	"gridroute/internal/spacetime"
	"gridroute/internal/tiling"
)

// --- Hot paths ---------------------------------------------------------------

// BenchmarkHotPath measures the steady-state routing substrate: the dense
// packer, the flat lattice DP, the space-time packing oracle, and the warm
// schedule verifier. These are the targets the BENCH_hotpath.json
// trajectory tracks; the *Dense/Flat/Warm variants must report 0 allocs/op
// (gated by alloc_test.go).
func BenchmarkHotPath(b *testing.B) {
	b.Run("PackerOfferDense", func(b *testing.B) {
		b.ReportAllocs()
		caps := []float64{3, 5}
		p := ipp.NewDense(1<<30, func(e ipp.EdgeID) float64 { return caps[int(e)%2] }, 256)
		path := []ipp.EdgeID{0, 1, 2, 3, 4, 5, 6, 7}
		p.Offer(path, p.Cost(path))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Offer(path, 0)
		}
	})
	b.Run("DPRunFlat", func(b *testing.B) {
		b.ReportAllocs()
		box := lattice.NewBox([]int{0, 0}, []int{48, 48})
		edgeX := make([]float64, box.Size()*2)
		rng := rand.New(rand.NewSource(1))
		for i := range edgeX {
			edgeX[i] = rng.Float64()
		}
		dp := box.NewDP()
		src := []int{0, 0}
		dp.RunFlat(box.Lo, box.Hi, src, edgeX, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dp.RunFlat(box.Lo, box.Hi, src, edgeX, nil)
		}
	})
	b.Run("SketchQueryCold", func(b *testing.B) {
		// One cold admission query (SetWarmStart(false)) on the stream
		// workload's geometry. A 16×16 grid with B = c = 3 fits in one
		// spatial tile (k = 18), so every route window is a 1×1×L chain of
		// tiles and the query takes the chain walk, not the DP (DPRunFlat
		// times the DP). The first 2000 packets are admitted first, so the
		// timed query sums committed weights.
		b.ReportAllocs()
		g, reqs, err := scenario.Generate("uniform", map[string]float64{
			"d": 2, "n": 16, "reqs": 20000, "maxt": 5000, "seed": 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		st := spacetime.New(g, spacetime.SuggestHorizon(g, reqs, 3))
		pmax := core.PMaxDet(g)
		side := []int{ipp.K(pmax), ipp.K(pmax), ipp.K(pmax)}
		sk := sketch.New(st, tiling.New(st.Box, side, make([]int, 3)), sketch.Downscaled)
		pk := ipp.NewDense(2*pmax+1, sk.Cap, sk.Universe())
		sess := sk.NewSession()
		sess.SetWarmStart(false)
		var out sketch.Route
		src := make([]int, 3)
		query := func(r *grid.Request) bool {
			st.ToLattice(r.Src, r.Arrival, src)
			wLo, wHi := st.DestRay(r)
			return sess.LightestRouteInto(pk, src, r.Dst, wLo, wHi, pmax, &out)
		}
		for i := range reqs[:2000] {
			if query(&reqs[i]) {
				pk.Offer(out.Edges, out.Cost)
			} else {
				pk.Offer(nil, 0)
			}
		}
		r := &reqs[2000]
		if !query(r) {
			b.Fatal("no route for the timed query")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			query(r)
		}
	})
	b.Run("STPackerLightestPath", func(b *testing.B) {
		b.ReportAllocs()
		g := grid.Line(64, 3, 3)
		st := spacetime.New(g, 128)
		sp := optbound.NewSTPacker(st, 3, 3, core.PMaxDet(g))
		r := &grid.Request{Src: grid.Vec{4}, Dst: grid.Vec{40}, Arrival: 2, Deadline: grid.InfDeadline}
		if p, _ := sp.LightestPath(r); p == nil {
			b.Fatal("no path")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp.LightestPath(r)
		}
	})
	// ReplayWarm: a warm Incremental.ReplayInto of the deterministic
	// algorithm's schedules on a 96-node line (Model 1): size the window,
	// reset, Add every schedule, scan the counters for breaches.
	b.Run("ReplayWarm", func(b *testing.B) {
		b.ReportAllocs()
		g := grid.Line(96, 3, 3)
		reqs := scenario.Uniform(g, 5*96, 192, rand.New(rand.NewSource(6)))
		res, err := core.RunDeterministic(g, reqs, core.DetConfig{})
		if err != nil {
			b.Fatal(err)
		}
		var inc netsim.Incremental
		var out netsim.Result
		inc.ReplayInto(g, reqs, res.Schedules, netsim.Model1, &out)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inc.ReplayInto(g, reqs, res.Schedules, netsim.Model1, &out)
		}
		if len(out.Violation) != 0 {
			b.Fatalf("violations: %v", out.Violation)
		}
	})
}

// BenchmarkEngineAdmit measures the streaming admission path end to end.
// The one-producer cases find the engine idle on every admit, so each runs
// the inline path on the benchmark goroutine: envelope pool → warm sketch
// query → packer offer → buffered reply. FanIn mostly takes the queued
// path: envelope pool → bounded queue → consumer loop → the same decide →
// reply. The packets/sec custom metric is the engine's headline in the
// BENCH_hotpath.json trajectory (recorded via cmd/benchjson). Mixed streams
// varying src/dst pairs (accepts until the packer fills, then cost
// rejects); Saturated pins the cost-reject steady state, which is the
// 0-alloc path gated by alloc_test.go.
func BenchmarkEngineAdmit(b *testing.B) {
	newEngine := func(b *testing.B, noWarm bool) *engine.Engine {
		b.Helper()
		g := grid.Line(64, 3, 3)
		eng, err := engine.New(g, engine.Options{
			Horizon: 256, PMax: core.PMaxDet(g), ExpectPackets: 4096,
			NoWarmStart: noWarm,
		})
		if err != nil {
			b.Fatal(err)
		}
		return eng
	}
	drain := func(b *testing.B, eng *engine.Engine) {
		b.Helper()
		b.StopTimer()
		if err := eng.Drain(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	// saturate admits one fixed packet until the Buchbinder–Naor threshold
	// rejects it, so the timed region measures a steady state.
	saturate := func(b *testing.B, eng *engine.Engine, pkt engine.Packet) {
		b.Helper()
		for i := 0; ; i++ {
			dec, err := eng.Admit(context.Background(), pkt)
			if err != nil {
				b.Fatal(err)
			}
			if dec.Verdict == engine.RejectedCost {
				return
			}
			if i > 1<<20 {
				b.Fatal("packer never saturated")
			}
		}
	}
	b.Run("Mixed", func(b *testing.B) {
		b.ReportAllocs()
		eng := newEngine(b, false)
		ctx := context.Background()
		pkt := engine.Packet{Src: grid.Vec{0}, Dst: grid.Vec{0}, Deadline: grid.InfDeadline}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pkt.Seq = i
			pkt.Src[0] = i % 40
			pkt.Dst[0] = pkt.Src[0] + 8 + i%16
			if _, err := eng.Admit(ctx, pkt); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
		drain(b, eng)
	})
	// WAL is Mixed with the write-ahead decision log on (fsync batched at the
	// default cadence): the fault-tolerance tax on streaming throughput. New
	// sub-benchmarks are absent from bench/baseline.txt, so the perf gate
	// skips this entry (disk-speed dependent); benchjson still records it as
	// a labelled trajectory point.
	b.Run("WAL", func(b *testing.B) {
		b.ReportAllocs()
		g := grid.Line(64, 3, 3)
		eng, err := engine.New(g, engine.Options{
			Horizon: 256, PMax: core.PMaxDet(g), ExpectPackets: 4096,
			WALPath: filepath.Join(b.TempDir(), "bench.wal"),
		})
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		pkt := engine.Packet{Src: grid.Vec{0}, Dst: grid.Vec{0}, Deadline: grid.InfDeadline}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pkt.Seq = i
			pkt.Src[0] = i % 40
			pkt.Dst[0] = pkt.Src[0] + 8 + i%16
			if _, err := eng.Admit(ctx, pkt); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
		drain(b, eng)
	})
	// Saturated measures the full-DP cost-reject steady state, so warm-start
	// reuse is disabled (a warm engine would skip the DP entirely here — that
	// path is the WarmStart sub-benchmark). The extra post-saturation admits
	// before ResetTimer retire lazily-grown scratch state and branch-predictor
	// cold starts that previously spread the baseline by ~75%.
	b.Run("Saturated", func(b *testing.B) {
		b.ReportAllocs()
		eng := newEngine(b, true)
		ctx := context.Background()
		pkt := engine.Packet{Src: grid.Vec{4}, Dst: grid.Vec{40}, Deadline: grid.InfDeadline}
		saturate(b, eng, pkt)
		for i := 0; i < 256; i++ {
			if _, err := eng.Admit(ctx, pkt); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Admit(ctx, pkt); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
		drain(b, eng)
	})
	// WarmStart is Saturated with DP reuse left on (the default engine
	// configuration): repeated queries of an unchanged packer skip the DP
	// outright.
	b.Run("WarmStart", func(b *testing.B) {
		b.ReportAllocs()
		eng := newEngine(b, false)
		ctx := context.Background()
		pkt := engine.Packet{Src: grid.Vec{4}, Dst: grid.Vec{40}, Deadline: grid.InfDeadline}
		saturate(b, eng, pkt)
		for i := 0; i < 256; i++ {
			if _, err := eng.Admit(ctx, pkt); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Admit(ctx, pkt); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
		drain(b, eng)
	})
	// FanIn drives the engine from 4×GOMAXPROCS blocking producers. The
	// b.RunParallel fan-in keeps packets in flight, so at procs ≥ 2 most
	// admits queue for the consumer loop; only an admit that finds the
	// engine idle decides inline, as every admit of the loops above does.
	// Deliberately outside the CI perf gate's filter: timings are
	// GOMAXPROCS-dependent by design, and benchjson labels the entries with
	// the procs value instead of merging them with the serial baseline.
	b.Run("FanIn", func(b *testing.B) {
		b.ReportAllocs()
		g := grid.Line(64, 3, 3)
		eng, err := engine.New(g, engine.Options{
			Horizon: 256, PMax: core.PMaxDet(g), ExpectPackets: 4096,
		})
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		var seq atomic.Int64
		b.SetParallelism(4)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			pkt := engine.Packet{Src: grid.Vec{0}, Dst: grid.Vec{0}, Deadline: grid.InfDeadline}
			for pb.Next() {
				i := int(seq.Add(1) - 1)
				pkt.Seq = i
				pkt.Src[0] = i % 40
				pkt.Dst[0] = pkt.Src[0] + 8 + i%16
				if _, err := eng.Admit(ctx, pkt); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
		drain(b, eng)
	})
}

// --- Table 1 -----------------------------------------------------------------

func BenchmarkTable1PriorAlgorithms(b *testing.B) {
	b.ReportAllocs()
	n := 64
	g := grid.Line(n, 3, 1)
	reqs := scenario.ConvoyRate(n, 2*n, 1, 1)
	optLB := scenario.ConvoyOPTLowerBound(n, 2*n, 1)
	horizon := spacetime.SuggestHorizon(g, reqs, 3)
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gr := netsim.RunLocal(g, reqs, baseline.Greedy{}, netsim.Model1, horizon)
		ratio = float64(optLB) / float64(gr.Throughput())
	}
	b.ReportMetric(ratio, "greedy-ratio")
}

// --- Table 2 -----------------------------------------------------------------

func BenchmarkTable2RandomizedRegimes(b *testing.B) {
	for _, cs := range []struct {
		name string
		b, c int
	}{{"small-B1c1", 1, 1}, {"large-buffers", 98, 1}, {"large-capacity", 1, 28}} {
		b.Run(cs.name, func(b *testing.B) {
			b.ReportAllocs()
			n := 64
			g := grid.Line(n, cs.b, cs.c)
			reqs := scenario.Uniform(g, 6*n, int64(2*n), rand.New(rand.NewSource(1)))
			var tp int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.RunRandomized(g, reqs, core.RandConfig{Gamma: 0.5}, rand.New(rand.NewSource(int64(i))))
				if err != nil {
					b.Fatal(err)
				}
				tp = res.Throughput
			}
			b.ReportMetric(float64(tp), "delivered")
		})
	}
}

// --- Figures -------------------------------------------------------------------

func BenchmarkFigure1Grid(b *testing.B) {
	b.ReportAllocs()
	g := grid.New([]int{4, 4}, 2, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(render.Grid2D(g)) == 0 {
			b.Fatal("empty rendering")
		}
	}
}

func BenchmarkFigure2SpaceTime(b *testing.B) {
	b.ReportAllocs()
	g := grid.Line(64, 3, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := spacetime.New(g, 256)
		r := &grid.Request{Src: grid.Vec{3}, Dst: grid.Vec{40}, Arrival: 5, Deadline: grid.InfDeadline}
		lo, hi := st.DestRay(r)
		if lo > hi {
			b.Fatal("empty destination ray")
		}
	}
}

func BenchmarkFigure3Untilting(b *testing.B) {
	b.ReportAllocs()
	g := grid.Line(64, 3, 3)
	st := spacetime.New(g, 256)
	p := make([]int, 2)
	v := make(grid.Vec, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := int64(0); t < 64; t++ {
			v[0] = int(t % 64)
			st.ToLattice(v, t, p)
			if _, tt := st.FromLattice(p, v); tt != t {
				b.Fatal("untilting round trip broken")
			}
		}
	}
}

func BenchmarkFigure4SketchCapacities(b *testing.B) {
	b.ReportAllocs()
	res, err := core.RunDeterministic(grid.Line(64, 3, 3),
		scenario.Uniform(grid.Line(64, 3, 3), 64, 64, rand.New(rand.NewSource(1))), core.DetConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res.MaxLoad > res.LoadBound {
			b.Fatal("sketch capacity discipline broken")
		}
	}
	b.ReportMetric(res.MaxLoad, "max-sketch-load")
}

func BenchmarkFigure5DetailedRouting(b *testing.B) {
	b.ReportAllocs()
	g := grid.Line(48, 3, 3)
	reqs := scenario.Uniform(g, 4*48, 96, rand.New(rand.NewSource(2)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RunDeterministic(g, reqs, core.DetConfig{})
		if err != nil || res.RouteStats.Anomalies != 0 {
			b.Fatalf("detailed routing failed: %v anomalies=%d", err, res.RouteStats.Anomalies)
		}
	}
}

func BenchmarkFigure6KnockKnee(b *testing.B) {
	b.ReportAllocs()
	// Crossing traffic that forces simultaneous bends inside shared tiles.
	g := grid.Line(48, 3, 3)
	var reqs []grid.Request
	for j := 0; j < 24; j++ {
		reqs = append(reqs, grid.Request{ID: len(reqs), Src: grid.Vec{j}, Dst: grid.Vec{j + 24}, Arrival: int64(j), Deadline: grid.InfDeadline})
		reqs = append(reqs, grid.Request{ID: len(reqs), Src: grid.Vec{j}, Dst: grid.Vec{j + 1}, Arrival: int64(j), Deadline: grid.InfDeadline})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RunDeterministic(g, reqs, core.DetConfig{})
		if err != nil || res.RouteStats.Anomalies != 0 {
			b.Fatal("knock-knee routing failed")
		}
	}
}

func BenchmarkFigure7Deadlines(b *testing.B) {
	b.ReportAllocs()
	g := grid.Line(48, 3, 3)
	rng := rand.New(rand.NewSource(3))
	reqs := scenario.WithDeadlines(g, scenario.Uniform(g, 150, 96, rng), 1.5, 8, rng)
	var late int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RunDeterministic(g, reqs, core.DetConfig{})
		if err != nil {
			b.Fatal(err)
		}
		late = 0
		for j, o := range res.Outcomes {
			if o.Delivered && o.DeliveredAt > reqs[j].Deadline {
				late++
			}
		}
	}
	b.ReportMetric(float64(late), "late-deliveries")
}

func BenchmarkFigure8Quadrants(b *testing.B) {
	b.ReportAllocs()
	g := grid.Line(64, 2, 2)
	st := spacetime.New(g, 128)
	pt := []int{31, 17}
	sw := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw = 0
		trials := 0
		for px := 0; px < 6; px++ {
			for pw := 0; pw < 8; pw++ {
				tl := tiling.New(st.Box, []int{6, 8}, []int{px, pw})
				if tl.QuadrantOf(pt) == tiling.SW {
					sw++
				}
				trials++
			}
		}
		if sw*4 != trials {
			b.Fatal("Prop 17: SW probability must be exactly 1/4 over shifts")
		}
	}
}

func BenchmarkFigure9ITXRouting(b *testing.B) {
	b.ReportAllocs()
	g := grid.Line(96, 1, 1)
	reqs := scenario.Uniform(g, 8*96, 192, rand.New(rand.NewSource(4)))
	var tp int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RunRandomized(g, reqs, core.RandConfig{Gamma: 0.25, Branch: 1}, rand.New(rand.NewSource(int64(i))))
		if err != nil || res.Anomalies != 0 {
			b.Fatal("I/T/X routing anomaly")
		}
		tp = res.Throughput
	}
	b.ReportMetric(float64(tp), "delivered")
}

func BenchmarkFigure10XRouting(b *testing.B) {
	b.ReportAllocs()
	// Heavy same-tile crossing demand exercises the X quadrant.
	g := grid.Line(64, 2, 2)
	reqs := scenario.Hotspot(g, 400, 128, 0.3, rand.New(rand.NewSource(5)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RunRandomized(g, reqs, core.RandConfig{Gamma: 0.25, Branch: 1}, rand.New(rand.NewSource(7)))
		if err != nil || res.Anomalies != 0 {
			b.Fatal("X-routing anomaly")
		}
	}
}

func BenchmarkFigure12NodeModels(b *testing.B) {
	b.ReportAllocs()
	g := grid.Line(4, 1, 1)
	reqs := []grid.Request{
		{ID: 0, Src: grid.Vec{0}, Dst: grid.Vec{3}, Arrival: 0, Deadline: grid.InfDeadline},
		{ID: 1, Src: grid.Vec{1}, Dst: grid.Vec{3}, Arrival: 1, Deadline: grid.InfDeadline},
	}
	var m1, m2 int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m1 = netsim.RunLocal(g, reqs, baseline.Greedy{}, netsim.Model1, 20).Throughput()
		m2 = netsim.RunLocal(g, reqs, baseline.Greedy{}, netsim.Model2, 20).Throughput()
	}
	if m1 != 2 || m2 != 1 {
		b.Fatalf("Appendix F separation broken: model1=%d model2=%d", m1, m2)
	}
	b.ReportMetric(float64(m1-m2), "model1-minus-model2")
}

// --- Theorems ------------------------------------------------------------------

func BenchmarkThm4DetLine(b *testing.B) {
	b.ReportAllocs()
	n := 96
	g := grid.Line(n, 3, 3)
	reqs := scenario.Uniform(g, 5*n, int64(2*n), rand.New(rand.NewSource(6)))
	horizon := spacetime.SuggestHorizon(g, reqs, 3)
	upper, _ := optbound.DualUpperBound(g, reqs, horizon)
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RunDeterministic(g, reqs, core.DetConfig{Horizon: horizon})
		if err != nil {
			b.Fatal(err)
		}
		ratio = upper / float64(res.Throughput)
	}
	b.ReportMetric(ratio, "certified-ratio")
}

func BenchmarkThm10DetGrid2D(b *testing.B) {
	b.ReportAllocs()
	g := grid.New([]int{10, 10}, 3, 3)
	reqs := scenario.Uniform(g, 400, 48, rand.New(rand.NewSource(7)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunDeterministic(g, reqs, core.DetConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThm11Bufferless(b *testing.B) {
	b.ReportAllocs()
	n := 96
	g := grid.Line(n, 0, 3)
	reqs := scenario.Uniform(g, 4*n, int64(2*n), rand.New(rand.NewSource(8)))
	opt := optbound.ExactBufferlessLine(g, reqs)
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RunDeterministic(g, reqs, core.DetConfig{})
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(opt) / float64(res.Throughput)
	}
	b.ReportMetric(ratio, "exact-ratio")
}

func BenchmarkThm13LargeCapacity(b *testing.B) {
	b.ReportAllocs()
	g := grid.Line(48, 64, 64)
	reqs := scenario.Saturating(g, 6, 3, rand.New(rand.NewSource(9)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RunLargeCapacity(g, reqs, core.DetConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if res.MaxLoad > float64(res.K) {
			b.Fatal("Thm 13 load discipline broken")
		}
	}
}

func BenchmarkThm29RandLine(b *testing.B) {
	b.ReportAllocs()
	n := 96
	g := grid.Line(n, 1, 1)
	reqs := scenario.Uniform(g, 8*n, int64(3*n), rand.New(rand.NewSource(10)))
	var tp int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RunRandomized(g, reqs, core.RandConfig{Gamma: 0.5}, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		tp += res.Throughput
	}
	b.ReportMetric(float64(tp)/float64(b.N), "mean-delivered")
}

func BenchmarkThm30LargeBuffers(b *testing.B) {
	b.ReportAllocs()
	g := grid.Line(64, 98, 1)
	reqs := scenario.Uniform(g, 400, 128, rand.New(rand.NewSource(11)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunRandomized(g, reqs, core.RandConfig{Gamma: 0.5, Branch: 1}, rand.New(rand.NewSource(3))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThm31SmallBuffers(b *testing.B) {
	b.ReportAllocs()
	g := grid.Line(64, 2, 64)
	reqs := scenario.Saturating(g, 8, 4, rand.New(rand.NewSource(12)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunRandomized(g, reqs, core.RandConfig{Gamma: 0.5, Branch: 1}, rand.New(rand.NewSource(4))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThm1IPP(b *testing.B) {
	b.ReportAllocs()
	g := grid.Line(64, 3, 3)
	st := spacetime.New(g, 256)
	reqs := scenario.Uniform(g, 300, 128, rand.New(rand.NewSource(13)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := optbound.NewSTPacker(st, 3, 3, core.PMaxDet(g))
		for j := range reqs {
			sp.Offer(&reqs[j])
		}
		pk := sp.Packer()
		if pk.PrimalValue() > 2*float64(pk.Accepted())+1e-9 || pk.MaxLoad() > pk.LoadBound() {
			b.Fatal("Theorem 1 guarantee violated")
		}
	}
}

func BenchmarkLemma2PathLengths(b *testing.B) {
	b.ReportAllocs()
	g := grid.Line(64, 3, 3)
	reqs := scenario.Uniform(g, 300, 128, rand.New(rand.NewSource(14)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		short, err := core.RunDeterministic(g, reqs, core.DetConfig{PMax: 64})
		if err != nil {
			b.Fatal(err)
		}
		long, err := core.RunDeterministic(g, reqs, core.DetConfig{PMax: core.PMaxDet(g)})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(short.Throughput)/float64(long.Throughput), "short-vs-paper-pmax")
		}
	}
}

func BenchmarkProp89DetailedRoutingLoss(b *testing.B) {
	b.ReportAllocs()
	g := grid.Line(96, 3, 3)
	reqs := scenario.Saturating(g, 8, 2, rand.New(rand.NewSource(15)))
	var f1, f2 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RunDeterministic(g, reqs, core.DetConfig{})
		if err != nil {
			b.Fatal(err)
		}
		f1 = float64(res.ReachedLastTile) / float64(res.Admitted)
		f2 = float64(res.Throughput) / float64(res.ReachedLastTile)
	}
	b.ReportMetric(f1, "ipp-prime/ipp")
	b.ReportMetric(f2, "alg/ipp-prime")
}

func BenchmarkLowerBounds(b *testing.B) {
	b.ReportAllocs()
	n := 64
	g := grid.Line(n, 1, 1)
	var reqs []grid.Request
	reqs = append(reqs, grid.Request{Src: grid.Vec{0}, Dst: grid.Vec{n - 1}, Arrival: 0, Deadline: grid.InfDeadline})
	for v := 1; v < n-1; v++ {
		reqs = append(reqs, grid.Request{Src: grid.Vec{v}, Dst: grid.Vec{v + 1}, Arrival: int64(v), Deadline: grid.InfDeadline})
	}
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := netsim.RunLocal(g, reqs, baseline.Greedy{}, netsim.Model2, int64(4*n))
		ratio = float64(n-2) / float64(res.Throughput())
	}
	b.ReportMetric(ratio, "model2-B1-ratio")
}

func BenchmarkProp16Tiling(b *testing.B) {
	b.ReportAllocs()
	g := grid.Line(256, 2, 3)
	st := spacetime.New(g, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl := tiling.New(st.Box, []int{8, 8}, []int{i % 8, (i * 3) % 8})
		if tl.TBox.Size() == 0 {
			b.Fatal("empty tiling")
		}
	}
}

func BenchmarkAblations(b *testing.B) {
	g := grid.Line(64, 1, 1)
	reqs := scenario.Uniform(g, 8*64, 192, rand.New(rand.NewSource(16)))
	for _, gamma := range []float64{0.25, 8} {
		b.Run("gamma="+itoa(int(gamma*100)), func(b *testing.B) {
			b.ReportAllocs()
			var tp int
			for i := 0; i < b.N; i++ {
				res, err := core.RunRandomized(g, reqs, core.RandConfig{Gamma: gamma, Branch: 1}, rand.New(rand.NewSource(5)))
				if err != nil {
					b.Fatal(err)
				}
				tp = res.Throughput
			}
			b.ReportMetric(float64(tp), "delivered")
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkK is a micro-benchmark of the tile-side parameter used across
// both algorithms.
func BenchmarkK(b *testing.B) {
	b.ReportAllocs()
	s := 0
	for i := 0; i < b.N; i++ {
		s += ipp.K(4 * 1024)
	}
	_ = s
}

// BenchmarkScenario measures workload-generation cost for every
// registered scenario at its default parameters — the generation-side
// counterpart of BenchmarkExperiment (whose E14 timings land in
// BENCH_experiments.json), so scenario cost shows up in the perf
// trajectory.
func BenchmarkScenario(b *testing.B) {
	for _, sc := range scenario.Registered() {
		b.Run(sc.ID, func(b *testing.B) {
			b.ReportAllocs()
			var digest uint64
			for i := 0; i < b.N; i++ {
				g, reqs, err := scenario.Generate(sc.ID, nil)
				if err != nil {
					b.Fatal(err)
				}
				d := scenario.Digest(g, reqs)
				if i > 0 && d != digest {
					b.Fatal("generation not deterministic")
				}
				digest = d
			}
		})
	}
}

// BenchmarkExperimentsQuick regenerates the full quick-mode EXPERIMENTS
// suite through the registry runner; it is the one-stop reproduction
// target and exercises the parallel path.
func BenchmarkExperimentsQuick(b *testing.B) {
	b.ReportAllocs()
	r := experiments.Runner{Workers: 4, Quick: true}
	for i := 0; i < b.N; i++ {
		rs := r.RunAll(context.Background())
		if len(rs) < 10 {
			b.Fatal("missing experiment reports")
		}
		for _, res := range rs {
			if res.Err != nil && !errors.Is(res.Err, experiments.ErrSkipped) {
				b.Fatalf("%s: %v", res.Experiment.ID, res.Err)
			}
			if len(res.Report.Tables) == 0 {
				b.Fatalf("%s: empty report", res.Experiment.ID)
			}
		}
	}
}

// BenchmarkExperiment runs one sub-benchmark per registered experiment ID,
// driving each through the registry with its canonical derived seed — the
// per-experiment timing counterpart of BENCH_experiments.json.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiments.Registered() {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			cfg := experiments.Config{Quick: true, ID: e.ID, Seed: experiments.SeedFor(e.ID)}
			for i := 0; i < b.N; i++ {
				rep, err := e.Run(context.Background(), cfg)
				if err != nil && !errors.Is(err, experiments.ErrSkipped) {
					b.Fatalf("%s: %v", e.ID, err)
				}
				if len(rep.Tables) == 0 {
					b.Fatalf("%s: empty report", e.ID)
				}
			}
		})
	}
}
