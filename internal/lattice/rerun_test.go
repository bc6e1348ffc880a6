package lattice

import (
	"math/rand"
	"testing"
)

// randomBoxWeights builds a random box of dimension d with edge and node
// weight slices.
func randomBoxWeights(rng *rand.Rand, d, maxDim int) (*Box, []float64, []float64) {
	lo := make([]int, d)
	hi := make([]int, d)
	for i := range lo {
		lo[i] = rng.Intn(5) - 2
		hi[i] = lo[i] + 2 + rng.Intn(maxDim-1)
	}
	b := NewBox(lo, hi)
	edgeX := make([]float64, b.Size()*d)
	nodeX := make([]float64, b.Size())
	for i := range edgeX {
		edgeX[i] = rng.Float64()
	}
	for i := range nodeX {
		nodeX[i] = rng.Float64() * 0.3
	}
	return b, edgeX, nodeX
}

// randomWindow picks a random non-empty sub-window and a source inside it.
func randomWindow(rng *rand.Rand, b *Box) (winLo, winHi, src []int) {
	d := b.D()
	winLo = make([]int, d)
	winHi = make([]int, d)
	src = make([]int, d)
	for i := 0; i < d; i++ {
		winLo[i] = b.Lo[i] + rng.Intn(b.Dim(i))
		winHi[i] = winLo[i] + 1 + rng.Intn(b.Hi[i]-winLo[i])
		src[i] = winLo[i] + rng.Intn(winHi[i]-winLo[i])
	}
	return winLo, winHi, src
}

// requireIdentical compares the full window state of two DPs bit for bit —
// the contract an incremental RerunFlat repair must satisfy against a cold
// RunFlat.
func requireIdentical(t *testing.T, tag string, ref, got *DP) {
	t.Helper()
	if ref.valid != got.valid {
		t.Fatalf("%s: valid %v != %v", tag, got.valid, ref.valid)
	}
	if !ref.valid {
		return
	}
	if ref.wsize != got.wsize {
		t.Fatalf("%s: window sizes differ: %d vs %d", tag, got.wsize, ref.wsize)
	}
	for w := 0; w < ref.wsize; w++ {
		if ref.cost[w] != got.cost[w] || ref.pred[w] != got.pred[w] {
			t.Fatalf("%s: node %d: cost/pred (%v,%d) != reference (%v,%d)",
				tag, w, got.cost[w], got.pred[w], ref.cost[w], ref.pred[w])
		}
	}
}

// TestRunFlatBoundedExact: below the bound the bounded sweep is bit-exact;
// at or above it, reported costs never dip below the bound (so a caller
// testing cost < bound gets exactly the unbounded answer).
func TestRunFlatBoundedExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		d := 2 + rng.Intn(2)
		b, edgeX, nodeX := randomBoxWeights(rng, d, 7)
		winLo, winHi, src := randomWindow(rng, b)
		var useNode []float64
		if trial%2 == 0 {
			useNode = nodeX
		}
		ref := b.NewDP()
		ref.RunFlat(winLo, winHi, src, edgeX, useNode)
		bound := rng.Float64() * 4
		bdp := b.NewDP()
		bdp.RunFlatBounded(winLo, winHi, src, edgeX, useNode, bound)
		if !ref.valid {
			continue
		}
		for w := 0; w < ref.wsize; w++ {
			switch {
			case ref.cost[w] < bound:
				if bdp.cost[w] != ref.cost[w] || bdp.pred[w] != ref.pred[w] {
					t.Fatalf("trial %d node %d below bound %v: (%v,%d) != exact (%v,%d)",
						trial, w, bound, bdp.cost[w], bdp.pred[w], ref.cost[w], ref.pred[w])
				}
			case bdp.cost[w] < bound:
				t.Fatalf("trial %d node %d: bounded cost %v < bound %v but exact is %v",
					trial, w, bdp.cost[w], bound, ref.cost[w])
			}
		}
	}
}

// mutateAndSeed applies k random weight changes (edge or node entries) and
// returns the dirty box-node seeds RerunFlat needs: heads of changed edges,
// the node itself for changed node weights.
func mutateAndSeed(rng *rand.Rand, b *Box, edgeX, nodeX []float64, k int) []int {
	d := b.D()
	var seeds []int
	for i := 0; i < k; i++ {
		if nodeX != nil && rng.Intn(4) == 0 {
			id := rng.Intn(b.Size())
			nodeX[id] = rng.Float64() * 0.3
			seeds = append(seeds, id)
			continue
		}
		for {
			id := rng.Intn(b.Size())
			a := rng.Intn(d)
			head, ok := b.Step(id, a)
			if !ok {
				continue // edge leaves the box: weight unused
			}
			edgeX[id*d+a] = rng.Float64() * 2
			seeds = append(seeds, head)
			break
		}
	}
	return seeds
}

// TestRerunFlatMatchesCold: after K rounds of sparse random weight changes,
// incremental re-relaxation must leave the window bit-identical — costs and
// predecessors — to a cold RunFlat over the mutated weights.
func TestRerunFlatMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		d := 2 + rng.Intn(2)
		b, edgeX, nodeX := randomBoxWeights(rng, d, 8)
		winLo, winHi, src := randomWindow(rng, b)
		var useNode []float64
		if trial%2 == 0 {
			useNode = nodeX
		}
		warm := b.NewDP()
		warm.RunFlat(winLo, winHi, src, edgeX, useNode)
		if !warm.valid {
			continue
		}
		cold := b.NewDP()
		for round := 0; round < 6; round++ {
			seeds := mutateAndSeed(rng, b, edgeX, useNode, 1+rng.Intn(3))
			if !warm.RerunFlat(seeds, edgeX, useNode, 0) {
				// Frontier overflow: the documented fallback is a full run.
				warm.RunFlat(winLo, winHi, src, edgeX, useNode)
			}
			cold.RunFlat(winLo, winHi, src, edgeX, useNode)
			requireIdentical(t, "rerun", cold, warm)
		}
	}
}

// TestRerunFlatOverflowFallback: a tiny maxFrontier must refuse (returning
// false and invalidating the DP) rather than repair partially, and a full
// RunFlat must fully recover the state afterwards.
func TestRerunFlatOverflowFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b, edgeX, nodeX := randomBoxWeights(rng, 2, 9)
	dp := b.NewDP()
	dp.RunFlat(b.Lo, b.Hi, b.Lo, edgeX, nodeX)
	// Change the first edge out of the source: the dirty region is the whole
	// reachable cone, guaranteed to blow a frontier cap of 1.
	head, ok := b.Step(b.Index(b.Lo), 0)
	if !ok {
		t.Fatal("degenerate box")
	}
	edgeX[b.Index(b.Lo)*2] += 1.5
	if dp.RerunFlat([]int{head}, edgeX, nodeX, 1) {
		t.Fatal("frontier cap 1 should overflow")
	}
	if dp.valid {
		t.Fatal("overflow must invalidate the DP")
	}
	cold := b.NewDP()
	cold.RunFlat(b.Lo, b.Hi, b.Lo, edgeX, nodeX)
	dp.RunFlat(b.Lo, b.Hi, b.Lo, edgeX, nodeX)
	requireIdentical(t, "recover", cold, dp)
}

// TestRerunFlatRequiresFlatRun: RerunFlat repairs a cached solution, so it
// must refuse when there is none — on a fresh DP, and after a run whose
// window clipped to nothing, even if an earlier run had succeeded.
func TestRerunFlatRequiresFlatRun(t *testing.T) {
	b := NewBox([]int{0, 0}, []int{4, 4})
	edgeX := make([]float64, b.Size()*2)
	dp := b.NewDP()
	if dp.RerunFlat([]int{1}, edgeX, nil, 0) {
		t.Fatal("RerunFlat on a fresh DP must return false")
	}
	dp.RunFlat(b.Lo, b.Hi, b.Lo, edgeX, nil)
	if !dp.RerunFlat([]int{1}, edgeX, nil, 0) {
		t.Fatal("RerunFlat after a full run refused")
	}
	dp.RunFlat([]int{4, 0}, []int{6, 4}, []int{4, 0}, edgeX, nil)
	if dp.RerunFlat([]int{1}, edgeX, nil, 0) {
		t.Fatal("RerunFlat after a run over an empty window must return false")
	}
}
