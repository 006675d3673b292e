package bayes

// ifaceBundle is one partition's interface message.
//
// In the asynchronous and Global_Read modes it carries the values the
// sender's interface nodes took over a *batch* of consecutive
// iterations (FirstIter .. FirstIter+len(Values)-1) plus the sender's
// evidence-match bit for each — batching several iterations into one
// message is the coalescing that asynchronous memory affords (§1, §2.1).
// With Anti set it is a single-iteration antimessage retracting the
// previously sent values of Nodes for the stamped iteration (§3.2).
//
// In the synchronous mode it carries one phase's interface values for
// one iteration (Phase >= 0), and the location stamp encodes
// (iteration, phase) so receivers can block for exactly the data the
// topological wave requires.
//
// A bundle implements core.Block: the DSM nodes count the buffers and
// messages that hold it, and its last release returns it to its
// writer's free list, so a partition cycles through a few bundles
// instead of allocating one per message. Receivers copy what they need
// in the Observer call that hands them a bundle and never keep it.
type ifaceBundle struct {
	Part      int
	Anti      bool
	Phase     int // -1 for async/GR bundles
	Nodes     []int
	FirstIter int64
	Values    [][]int8 // one row per covered iteration
	EvOK      []bool   // one entry per covered iteration, or none

	slab []int8 // backs every row of Values
	refs int
	pool *bundlePool
}

func bundleBytes(nodes, rows int) int { return 16 + rows*(6*nodes+1) }

// Retain adds n references.
func (b *ifaceBundle) Retain(n int) { b.refs += n }

// Release drops one reference; the last returns the bundle to its
// writer's free list, where the nscc_poison build overwrites its rows
// with -1 so a use after release changes the results.
func (b *ifaceBundle) Release() {
	b.refs--
	switch {
	case b.refs > 0:
		return
	case b.refs < 0:
		panic("bayes: interface bundle released more often than retained")
	}
	if poisonReleased {
		for i := range b.slab {
			b.slab[i] = -1
		}
	}
	b.pool.free = append(b.pool.free, b)
}

// bundlePool is one partition's free list of interface bundles.
type bundlePool struct {
	free []*ifaceBundle
	made int // bundles allocated over the run
}

// get returns a bundle of part's stamped with phase, nodes and first,
// with rows rows of len(nodes) values and, if ev, one evidence bit per
// row. It is taken from the free list or allocated; its rows and bits
// are garbage until the caller fills them.
func (bp *bundlePool) get(part, phase int, nodes []int, first int64, rows int, ev bool) *ifaceBundle {
	var b *ifaceBundle
	if k := len(bp.free); k > 0 {
		b = bp.free[k-1]
		bp.free[k-1] = nil
		bp.free = bp.free[:k-1]
	} else {
		b = &ifaceBundle{pool: bp}
		bp.made++
	}
	b.Part, b.Anti, b.Phase, b.Nodes, b.FirstIter = part, false, phase, nodes, first
	n, bits := len(nodes), 0
	if ev {
		bits = rows
	}
	b.slab = resize(b.slab, rows*n)
	b.Values = resize(b.Values, rows)
	for r := range b.Values {
		b.Values[r] = b.slab[r*n : (r+1)*n : (r+1)*n]
	}
	b.EvOK = resize(b.EvOK, bits)
	return b
}

// resize returns s with length n, reusing its array when it is large
// enough. The elements' values are left as they were.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
