package dense

import (
	"testing"
)

func TestCountsBasic(t *testing.T) {
	var c Counts
	c.Reset(10)
	if got := c.Get(3); got != 0 {
		t.Fatalf("fresh Get = %d, want 0", got)
	}
	if got := c.Add(3, 2); got != 2 {
		t.Fatalf("Add = %d, want 2", got)
	}
	if got := c.Add(3, -1); got != 1 {
		t.Fatalf("Add = %d, want 1", got)
	}
	c.Add(7, 5)
	if got := c.Get(7); got != 5 {
		t.Fatalf("Get(7) = %d, want 5", got)
	}
	touched := c.Touched()
	if len(touched) != 2 || touched[0] != 3 || touched[1] != 7 {
		t.Fatalf("Touched = %v, want [3 7]", touched)
	}
}

func TestCountsResetClears(t *testing.T) {
	var c Counts
	c.Reset(5)
	c.Add(2, 9)
	c.Reset(5)
	if got := c.Get(2); got != 0 {
		t.Fatalf("Get after Reset = %d, want 0", got)
	}
	if len(c.Touched()) != 0 {
		t.Fatalf("Touched after Reset = %v, want empty", c.Touched())
	}
}

func TestCountsGrow(t *testing.T) {
	var c Counts
	c.Reset(2)
	c.Add(1, 1)
	c.Reset(100)
	if got := c.Get(99); got != 0 {
		t.Fatalf("grown Get = %d, want 0", got)
	}
	if c.Len() != 100 {
		t.Fatalf("Len = %d, want 100", c.Len())
	}
}

func TestCountsEpochWrap(t *testing.T) {
	var c Counts
	c.Reset(3)
	c.Add(0, 7)
	c.epoch = ^uint32(0) // force wrap on next Reset
	c.stamp[1] = 1       // would alias post-wrap epoch 1 if not cleared
	c.val[1] = 42
	c.Reset(3)
	if c.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", c.epoch)
	}
	if got := c.Get(1); got != 0 {
		t.Fatalf("aliased cell reads %d, want 0", got)
	}
}

func TestCountsWarmResetAllocFree(t *testing.T) {
	var c Counts
	c.Reset(64)
	for i := 0; i < 64; i++ {
		c.Add(i, 1)
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.Reset(64)
		c.Add(5, 3)
	})
	if allocs != 0 {
		t.Fatalf("warm Reset+Add allocates %v times per run, want 0", allocs)
	}
}
