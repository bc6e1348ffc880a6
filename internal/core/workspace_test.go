package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"sync"
	"testing"

	"gridroute/internal/grid"
	"gridroute/internal/scenario"
)

// TestRunDeterministicReusesWorkspace: batch runs draw their working memory
// (the engine's arena, admitted list and detailed-routing slabs) from a pool
// and hand it back before RunDeterministic returns, so no result may depend
// on which run used that memory before, and no result may share it. The
// test routes the 15 in-regime catalog instances at seed 1 and keeps each
// result and its digest; routes them again in reverse order, and then from
// 4 goroutines at once, each starting at another instance, and checks every
// digest against the first run's; and finally digests the kept results
// again, which every later run would have changed had a result aliased
// pooled memory. The race detector makes the pool drop a random share of
// what is put back, so under -race both fresh and reused memory run.
func TestRunDeterministicReusesWorkspace(t *testing.T) {
	type instance struct {
		id   string
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
	if len(insts) != 15 {
		t.Fatalf("%d in-regime catalog instances, want 15", len(insts))
	}
	route := func(in instance) *DetResult {
		res, err := RunDeterministic(in.g, in.reqs, DetConfig{})
		if err != nil {
			t.Error(err)
			return nil
		}
		return res
	}

	kept := make([]*DetResult, len(insts))
	want := make([]uint64, len(insts))
	for k, in := range insts {
		kept[k] = route(in)
		if kept[k] == nil {
			t.FailNow()
		}
		if kept[k].Throughput == 0 {
			t.Fatalf("%s: nothing delivered", in.id)
		}
		want[k] = detDigest(kept[k], in.reqs)
	}
	check := func(via string, k int, res *DetResult) {
		if res == nil {
			return
		}
		if got := detDigest(res, insts[k].reqs); got != want[k] {
			t.Errorf("%s %s: digest %#x, want %#x (throughput %d, first run %d)", insts[k].id, via, got, want[k], res.Throughput, kept[k].Throughput)
		}
	}
	for k := range slices.Backward(insts) {
		check("in reverse order", k, route(insts[k]))
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range insts {
				k := (j + 4*w) % len(insts)
				check("from 4 goroutines", k, route(insts[k]))
			}
		}()
	}
	wg.Wait()
	for k, res := range kept {
		check("kept from the first run", k, res)
	}
}

// detDigest is an FNV-64a digest of a deterministic result: its counts and
// Theorem 1 figures, every request's outcome, and every schedule, whose Req
// must be the caller's request.
func detDigest(res *DetResult, reqs []grid.Request) uint64 {
	h := fnv.New64a()
	put := func(x int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	flag := func(v bool) {
		if v {
			put(1)
		} else {
			put(0)
		}
	}
	s := res.RouteStats
	for _, x := range []int{res.Admitted, res.ReachedLastTile, res.Throughput, s.Injected, s.Delivered, s.ReachedLastTile, s.DroppedBy[0], s.DroppedBy[1], s.DroppedBy[2], s.DroppedBy[3], s.Anomalies} {
		put(int64(x))
	}
	for _, f := range []float64{res.MaxLoad, res.LoadBound, res.PrimalValue} {
		put(int64(math.Float64bits(f)))
	}
	put(int64(len(res.Outcomes)))
	for i, o := range res.Outcomes {
		put(o.DeliveredAt)
		put(int64(o.DroppedIn))
		flag(o.Admitted)
		flag(o.Delivered)
		flag(o.ReachedLastTile)
		sc := res.Schedules[i]
		flag(sc != nil)
		if sc == nil {
			continue
		}
		flag(sc.Req == &reqs[i])
		put(sc.StartT)
		put(int64(len(sc.Src)))
		for _, x := range sc.Src {
			put(int64(x))
		}
		put(int64(len(sc.Moves)))
		for _, m := range sc.Moves {
			put(int64(m))
		}
	}
	return h.Sum64()
}
