package lattice

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestPathIntoMatchesPathTo checks that path extraction into a reused
// output Path matches extraction into a fresh one, across random DPs and
// destinations, so that reused slices never leak a previous path. (The name
// is that of the deleted allocating PathTo, which the fresh Path replaces.)
func TestPathIntoMatchesPathTo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var out Path
	for trial := 0; trial < 30; trial++ {
		d := 1 + rng.Intn(3)
		lo := make([]int, d)
		hi := make([]int, d)
		for i := range lo {
			lo[i] = rng.Intn(4) - 2
			hi[i] = lo[i] + 2 + rng.Intn(4)
		}
		b := NewBox(lo, hi)
		ew := make([]float64, b.Size()*d)
		for i := range ew {
			ew[i] = rng.Float64()
		}
		dp := b.NewDP()
		dp.RunFlatBounded(lo, hi, ew, nil, Inf)

		// Probe several destinations per DP so the reused Path shrinks and
		// grows across calls.
		for probe := 0; probe < 5; probe++ {
			dst := make([]int, d)
			for i := range dst {
				dst[i] = lo[i] + rng.Intn(hi[i]-lo[i])
			}
			var fresh Path
			ok := dp.PathInto(dst, &fresh)
			if reused := dp.PathInto(dst, &out); reused != ok {
				t.Fatalf("trial %d: fresh PathInto ok=%v but reused ok=%v", trial, ok, reused)
			}
			if !ok {
				continue
			}
			// A reused out.Axes may be empty-but-non-nil where a fresh
			// path's is nil; compare contents, not headers.
			if !reflect.DeepEqual(fresh.Start, out.Start) || !slices.Equal(fresh.Axes, out.Axes) {
				t.Fatalf("trial %d: reused PathInto (%v,%v) != fresh (%v,%v)", trial, out.Start, out.Axes, fresh.Start, fresh.Axes)
			}
		}
	}
}
