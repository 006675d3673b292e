package graph

import "math"

// stateBlock is one published copy of a partition's state in operand
// form: the value its location carries. It implements core.Block, so
// the DSM nodes count the buffers and messages that hold it, and its
// last release returns it to its writer's free list instead of leaving
// it to the GC. A partition then cycles through a few blocks instead of
// allocating one per changed superstep.
type stateBlock struct {
	vals []float64
	// at is the superstep whose entering state vals holds. A partition
	// fills at most one block per superstep, so readers compare stamps,
	// not arrays, to tell a republished block from a refilled one.
	at   int64
	refs int
	pool *blockPool
}

// Retain adds n references.
func (b *stateBlock) Retain(n int) { b.refs += n }

// Release drops one reference; the last returns the block to its
// writer's free list, where the nscc_poison build overwrites its
// values with NaN so a use after release changes the results.
func (b *stateBlock) Release() {
	b.refs--
	switch {
	case b.refs > 0:
		return
	case b.refs < 0:
		panic("graph: state block released more often than retained")
	}
	if poisonReleased {
		for i := range b.vals {
			b.vals[i] = math.NaN()
		}
	}
	b.pool.free = append(b.pool.free, b)
}

// blockPool is one partition's free list of state blocks.
type blockPool struct {
	free []*stateBlock
}

// get takes a released block from the free list, or allocates one of n
// values. Its values are garbage until the caller fills them.
func (bp *blockPool) get(n int) *stateBlock {
	if k := len(bp.free); k > 0 {
		b := bp.free[k-1]
		bp.free[k-1] = nil
		bp.free = bp.free[:k-1]
		return b
	}
	return &stateBlock{vals: make([]float64, n), pool: bp}
}
