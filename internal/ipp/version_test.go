package ipp

import (
	"math"
	"testing"
)

// TestVersionCountsAccepts pins the commit counter the sketch session's
// warm-start skip trusts: Version bumps exactly once per accepted offer —
// uncapacitated edges included — and never on a rejection.
func TestVersionCountsAccepts(t *testing.T) {
	p := NewDense(10, func(e EdgeID) float64 {
		if e == 2 {
			return math.Inf(1)
		}
		return 3
	}, 4)
	if p.Version() != 0 {
		t.Fatalf("fresh packer has version %d", p.Version())
	}
	if !p.Offer([]EdgeID{0, 2, 1}, 0) {
		t.Fatal("zero-cost offer rejected")
	}
	if p.Version() != 1 {
		t.Fatalf("version %d after one accept", p.Version())
	}

	// Rejections — nil path and over-threshold cost — leave it intact.
	p.Offer(nil, 0)
	p.Offer([]EdgeID{1}, 1.5)
	if p.Version() != 1 {
		t.Fatalf("rejection moved the version: v=%d", p.Version())
	}

	if !p.Offer([]EdgeID{1}, p.Cost([]EdgeID{1})) {
		t.Fatalf("second offer rejected (cost %v)", p.Cost([]EdgeID{1}))
	}
	if p.Version() != 2 {
		t.Fatalf("after second accept v=%d", p.Version())
	}
}
