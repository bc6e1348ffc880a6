package ipp

import (
	"math"
	"reflect"
	"testing"
)

// TestVersionAndLastCommitted pins the incremental-commit contract the
// packer exposes to streaming consumers: Version bumps exactly once per
// accepted offer, and LastCommitted names the capacitated edges of that
// offer in path order.
func TestVersionAndLastCommitted(t *testing.T) {
	p := NewDense(10, func(e EdgeID) float64 {
		if e == 2 {
			return math.Inf(1)
		}
		return 3
	}, 4)
	if p.Version() != 0 || len(p.LastCommitted()) != 0 {
		t.Fatalf("fresh packer has version %d, last %v", p.Version(), p.LastCommitted())
	}
	if !p.Offer([]EdgeID{0, 2, 1}, 0) {
		t.Fatal("zero-cost offer rejected")
	}
	if p.Version() != 1 {
		t.Fatalf("version %d after one accept", p.Version())
	}
	// Edge 2 is uncapacitated: committed flow but no weight change.
	if got := p.LastCommitted(); !reflect.DeepEqual(got, []EdgeID{0, 1}) {
		t.Fatalf("last committed %v, want [0 1]", got)
	}

	// Rejections — nil path and over-threshold cost — leave both intact.
	p.Offer(nil, 0)
	p.Offer([]EdgeID{1}, 1.5)
	if p.Version() != 1 || !reflect.DeepEqual(p.LastCommitted(), []EdgeID{0, 1}) {
		t.Fatalf("rejection moved incremental state: v=%d last=%v", p.Version(), p.LastCommitted())
	}

	if !p.Offer([]EdgeID{1}, p.Cost([]EdgeID{1})) {
		t.Fatalf("second offer rejected (cost %v)", p.Cost([]EdgeID{1}))
	}
	if p.Version() != 2 || !reflect.DeepEqual(p.LastCommitted(), []EdgeID{1}) {
		t.Fatalf("after second accept v=%d last=%v", p.Version(), p.LastCommitted())
	}
}
