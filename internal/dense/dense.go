// Package dense provides epoch-stamped flat-array state for hot paths.
//
// Every bookkeeping structure on the routing hot paths (edge occupancy in
// the verifiers, lane/quota tables in the randomized router) is a sparse
// view over a known, compact integer universe: node×axis×time ids,
// tile×plane×lane ids. The map-based implementations paid a hash per touch
// — millions per experiment. The types here replace them with flat slices
// plus an epoch stamp per cell, so clearing between runs (or between
// simulation steps) is O(1): bump the epoch and every cell reads as zero
// again. Buffers grow monotonically and are reused, which makes repeated
// runs (sweeps, retries) allocation-free once warm.
package dense

// Counts is a reusable dense multiset over [0, universe): a map[int]int
// replacement with O(1) clearing and no hashing. The zero value is ready to
// use after a Reset.
type Counts struct {
	epoch   uint32
	stamp   []uint32
	val     []int32
	touched []int32
}

// Reset clears all counts and (re)sizes the universe. Existing buffers are
// reused when large enough, so a warm Counts allocates nothing.
//
//gridroute:hotpath
func (c *Counts) Reset(universe int) {
	if cap(c.stamp) < universe {
		c.stamp = make([]uint32, universe)
		c.val = make([]int32, universe)
	}
	c.stamp = c.stamp[:universe]
	c.val = c.val[:universe]
	c.touched = c.touched[:0]
	c.epoch++
	if c.epoch == 0 {
		// Epoch wrapped: stale stamps from 2^32 resets ago could alias.
		for i := range c.stamp {
			c.stamp[i] = 0
		}
		c.epoch = 1
	}
}

// Len returns the universe size.
func (c *Counts) Len() int { return len(c.val) }

// Get returns the count at i (0 if never written this epoch).
//
//gridroute:hotpath
func (c *Counts) Get(i int) int {
	if c.stamp[i] != c.epoch {
		return 0
	}
	return int(c.val[i])
}

// Add adds delta to the count at i and returns the new value.
//
//gridroute:hotpath
func (c *Counts) Add(i, delta int) int {
	if c.stamp[i] != c.epoch {
		c.stamp[i] = c.epoch
		c.val[i] = int32(delta)
		c.touched = append(c.touched, int32(i))
		return delta
	}
	c.val[i] += int32(delta)
	return int(c.val[i])
}

// Touched returns the indices written this epoch, in first-write order. The
// slice is invalidated by the next Reset; callers must not retain it.
func (c *Counts) Touched() []int32 { return c.touched }
