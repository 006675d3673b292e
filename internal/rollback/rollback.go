// Package rollback implements the bookkeeping for the paper's
// asynchronous logic sampling (§3.2), a variant of synchronization via
// rollback [2]: a processor that needs a remote interface-node value it
// has not received gambles on a default value and continues; when the
// actual value arrives and differs from the value used, the iteration's
// dependent computation must be invalidated and recomputed, and
// corrections (antimessage + fresh value) cascade downstream.
//
// The Store tracks, per (remote node, iteration): the actual value
// received and the value the local computation consumed, and the set
// of iterations dirtied by conflicting or retracted values. It keeps
// one dense row per live iteration with one cell per remote node, so
// the hot path is slice indexing rather than map hashing.
package rollback

import (
	"fmt"
	"math"
	"slices"

	"nscc/internal/intmap"
)

// cell is one (iteration, remote node) slot: the received actual and
// the consumed value, each valid only under its presence bit. A state
// is a node's value index, so an int8 holds it and a cell is 3 bytes.
type cell struct {
	actual int8
	used   int8
	flags  uint8
}

// cellState returns state as a cell holds it. A state outside int8's
// range panics: the ledger never truncates one.
func cellState(state int) int8 {
	if state < math.MinInt8 || state > math.MaxInt8 {
		panic(fmt.Sprintf("rollback: state %d outside [%d, %d]", state, math.MinInt8, math.MaxInt8))
	}
	return int8(state)
}

const (
	hasActual uint8 = 1 << iota
	hasUsed
)

// row is one iteration's cells and flags.
type row struct {
	iter  int64
	cells []cell // stride cells, one per column and the rest spare
	live  bool   // false while the row waits on the free list
	dirty bool
}

// blockRows is how many rows share one allocation, so that a ledger
// that is never pruned grows without copying its rows.
const blockRows = 64

// block is blockRows rows whose cells share one slab.
type block [blockRows]row

// setStride moves b's rows onto a fresh slab of stride cells per row,
// keeping each row's cells.
func (b *block) setStride(stride int) {
	slab := make([]cell, blockRows*stride)
	for i := range b {
		cells := slab[i*stride : (i+1)*stride : (i+1)*stride]
		copy(cells, b[i].cells)
		b[i].cells = cells
	}
}

// Stats counts the store's activity.
type Stats struct {
	Gambles   int64 // values consumed as defaults
	Actuals   int64 // values consumed from received messages
	Conflicts int64 // received values that contradicted a consumed value
	Retracts  int64 // antimessages that invalidated a consumed value
	Rollbacks int64 // iterations recomputed
}

// Store is one processor's remote-value and gamble ledger.
//
// Node ids must be ≥ 0; iterations may be any int64. A state, given
// to PutActual or as Consume's default, must fit an int8: the Store
// panics on any other rather than truncate it. A node gets a
// column the first time it is seen, through col (indexed by node id),
// and an iteration gets a row the first time a value is stored for it.
// Rows live in blocks and are numbered in the order they were made.
// Lookups go through a one-row cache, so only a switch to another
// iteration consults the iteration→row index. Prune recycles the rows
// it drops through a free list, and dirty iterations are kept in
// increasing order. The slice Dirty returns stays valid, and
// unchanged, until the next call of Dirty.
type Store struct {
	col    []int32 // node id → column+1; 0 until the node is seen
	width  int     // columns handed out
	stride int     // cells per row, ≥ width
	blocks []*block
	nrows  int32             // rows ever made
	index  intmap.Map[int32] // live iteration → row
	free   []int32
	last   *row    // row of the latest lookup, or nil
	dirty  []int64 // dirty iterations, increasing
	snap   []int64 // Dirty's result buffer
	stats  Stats
}

// NewStore returns an empty ledger.
func NewStore() *Store {
	return &Store{}
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats { return s.stats }

// column returns node's column, or -1 if node has none yet.
func (s *Store) column(node int) int {
	if node < len(s.col) {
		return int(s.col[node]) - 1
	}
	return -1
}

// columnFor returns node's column, handing out the next one if node
// has none, and widens every row when the columns outgrow the stride.
func (s *Store) columnFor(node int) int {
	if c := s.column(node); c >= 0 {
		return c
	}
	if node >= len(s.col) {
		s.col = append(s.col, make([]int32, node+1-len(s.col))...)
	}
	c := s.width
	s.width++
	s.col[node] = int32(s.width)
	if s.width > s.stride {
		s.stride = max(4, 2*s.stride)
		for _, b := range s.blocks {
			b.setStride(s.stride)
		}
	}
	return c
}

// find returns iter's row, or nil if iter has none.
func (s *Store) find(iter int64) *row {
	if s.last != nil && s.last.iter == iter {
		return s.last
	}
	r, ok := s.index.Get(iter)
	if !ok {
		return nil
	}
	s.last = &s.blocks[r/blockRows][r%blockRows]
	return s.last
}

// rowFor returns iter's row, taking a recycled or new one if iter has
// none.
func (s *Store) rowFor(iter int64) *row {
	if rw := s.find(iter); rw != nil {
		return rw
	}
	var r int32
	if n := len(s.free); n > 0 {
		r = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		r = s.nrows
		s.nrows++
		if int(r/blockRows) == len(s.blocks) {
			b := new(block)
			b.setStride(s.stride)
			s.blocks = append(s.blocks, b)
		}
	}
	rw := &s.blocks[r/blockRows][r%blockRows]
	clear(rw.cells)
	rw.iter, rw.live, rw.dirty = iter, true, false
	s.index.Put(iter, r)
	s.last = rw
	return rw
}

// markDirty flags rw's iteration for recomputation.
func (s *Store) markDirty(rw *row) {
	if rw.dirty {
		return
	}
	rw.dirty = true
	i, _ := slices.BinarySearch(s.dirty, rw.iter)
	s.dirty = slices.Insert(s.dirty, i, rw.iter)
}

// PutActual records the received actual state of node at iter. If the
// local computation already consumed a different value for that slot
// (default gamble or since-retracted actual), the iteration is marked
// dirty and true is returned.
func (s *Store) PutActual(node int, iter int64, state int) bool {
	v := cellState(state)
	c := s.columnFor(node)
	rw := s.rowFor(iter)
	cl := &rw.cells[c]
	cl.actual = v
	cl.flags |= hasActual
	if cl.flags&hasUsed != 0 && cl.used != v {
		s.stats.Conflicts++
		s.markDirty(rw)
		return true
	}
	return false
}

// Retract processes an antimessage: the sender withdraws its previously
// sent value of node at iter. If the local computation consumed that
// value, the iteration is marked dirty and true is returned.
func (s *Store) Retract(node int, iter int64) bool {
	c := s.column(node)
	if c < 0 {
		return false
	}
	rw := s.find(iter)
	if rw == nil {
		return false
	}
	cl := &rw.cells[c]
	cl.flags &^= hasActual
	if cl.flags&hasUsed != 0 {
		s.stats.Retracts++
		s.markDirty(rw)
		return true
	}
	return false
}

// Consume returns the value the computation should use for node at
// iter: the received actual if present, otherwise the supplied default
// (a gamble). The consumed value is recorded so later arrivals can be
// checked against it.
func (s *Store) Consume(node int, iter int64, def int) (state int, gambled bool) {
	v := cellState(def)
	c := s.columnFor(node)
	cl := &s.rowFor(iter).cells[c]
	if cl.flags&hasActual != 0 {
		v = cl.actual
		s.stats.Actuals++
	} else {
		gambled = true
		s.stats.Gambles++
	}
	cl.used = v
	cl.flags |= hasUsed
	return int(v), gambled
}

// Dirty returns the dirtied iterations in increasing order (rollbacks
// must replay oldest-first so corrections cascade consistently). The
// slice is the store's own buffer: it stays unchanged until the next
// call of Dirty, whatever else the store is told meanwhile.
func (s *Store) Dirty() []int64 {
	s.snap = append(s.snap[:0], s.dirty...)
	return s.snap
}

// HasDirty reports whether any iteration awaits recomputation.
func (s *Store) HasDirty() bool { return len(s.dirty) > 0 }

// BeginRollback clears iter's consumed-value records and dirty flag and
// counts the rollback; the caller then recomputes the iteration, during
// which Consume re-records what the replay uses.
func (s *Store) BeginRollback(iter int64) {
	s.stats.Rollbacks++
	rw := s.find(iter)
	if rw == nil {
		return
	}
	if rw.dirty {
		rw.dirty = false
		i, _ := slices.BinarySearch(s.dirty, iter)
		s.dirty = slices.Delete(s.dirty, i, i+1)
	}
	for i := range rw.cells {
		rw.cells[i].flags &^= hasUsed
	}
}

// Prune discards actual/used records older than iter (exclusive) to
// bound memory on long runs. Dirty iterations are never pruned.
func (s *Store) Prune(iter int64) {
	for bi, b := range s.blocks {
		for i := range b {
			rw := &b[i]
			if rw.live && rw.iter < iter && !rw.dirty {
				rw.live = false
				s.index.Delete(rw.iter)
				s.free = append(s.free, int32(bi*blockRows+i))
				if s.last == rw {
					s.last = nil
				}
			}
		}
	}
}
