package lattice

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestPathIntoMatchesPathTo checks the allocation-reusing path extraction
// against the allocating one across random DPs and repeated reuse of the
// same output Path.
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
		dp.RunFlat(lo, hi, lo, ew, nil)

		// Probe several destinations per DP so the reused Path shrinks and
		// grows across calls.
		for probe := 0; probe < 5; probe++ {
			dst := make([]int, d)
			for i := range dst {
				dst[i] = lo[i] + rng.Intn(hi[i]-lo[i])
			}
			want := dp.PathTo(dst)
			ok := dp.PathInto(dst, &out)
			if (want == nil) != !ok {
				t.Fatalf("trial %d: PathTo nil=%v but PathInto ok=%v", trial, want == nil, ok)
			}
			if want == nil {
				continue
			}
			// A reused out.Axes may be empty-but-non-nil where a fresh
			// path's is nil; compare contents, not headers.
			sameAxes := len(want.Axes) == len(out.Axes)
			for i := 0; sameAxes && i < len(out.Axes); i++ {
				sameAxes = want.Axes[i] == out.Axes[i]
			}
			if !reflect.DeepEqual(want.Start, out.Start) || !sameAxes {
				t.Fatalf("trial %d: PathInto (%v,%v) != PathTo (%v,%v)", trial, out.Start, out.Axes, want.Start, want.Axes)
			}
		}
	}
}
