// Package intmap is a hash table keyed by int64 for the lookups a
// simulated cluster makes per message: a DSM node's locations and
// freshest updates by location id, the warp meter's previous arrival
// per (receiver, sender) stream, and the rollback ledger's row per
// iteration.
//
// A Map is open-addressed with linear probing, at most three quarters
// full, and hashes a key by multiplying it by 2^64/φ and keeping the
// top bits (Fibonacci hashing). Consecutive keys, such as a ledger's
// iterations or a run's dense location ids, so land far apart instead
// of in one run of adjacent slots, which an identity hash would make
// and which a deletion would then have to walk. Deletion shifts the
// entries after the hole back, so the table keeps no tombstones and a
// lookup never slows with the entries a run has deleted.
package intmap

import "math/bits"

// Map maps int64 keys to values of type V. The zero value is an empty
// map. A Map never shrinks; its lookups do not grow with the key count.
type Map[V any] struct {
	slots []slot[V] // len is 0 or a power of two
	n     int       // keys present
	shift uint      // 64 - log2(len(slots))
}

type slot[V any] struct {
	key  int64
	used bool
	val  V
}

// home returns k's preferred slot: the top bits of k times 2^64/φ.
func (m *Map[V]) home(k int64) int {
	return int((uint64(k) * 0x9E3779B97F4A7C15) >> m.shift)
}

// Get returns k's value and whether k is present; an absent key reads
// as V's zero value.
func (m *Map[V]) Get(k int64) (V, bool) {
	if m.n > 0 {
		mask := len(m.slots) - 1
		for i := m.home(k); m.slots[i].used; i = (i + 1) & mask {
			if m.slots[i].key == k {
				return m.slots[i].val, true
			}
		}
	}
	var zero V
	return zero, false
}

// Put sets k's value.
func (m *Map[V]) Put(k int64, v V) {
	p, _ := m.Upsert(k)
	*p = v
}

// Upsert returns a pointer to k's value, first inserting k with V's
// zero value if it is absent, and whether k was present. The pointer
// is valid until the next Put, Upsert or Delete.
func (m *Map[V]) Upsert(k int64) (*V, bool) {
	if len(m.slots) > 0 {
		mask := len(m.slots) - 1
		for i := m.home(k); ; i = (i + 1) & mask {
			s := &m.slots[i]
			if !s.used {
				if 4*(m.n+1) > 3*len(m.slots) {
					break // full enough to grow first
				}
				s.key, s.used = k, true
				m.n++
				return &s.val, false
			}
			if s.key == k {
				return &s.val, true
			}
		}
	}
	m.grow()
	return m.Upsert(k)
}

// Delete removes k, if present. Each entry after the hole, up to the
// next empty slot, moves back into it unless its home lies after the
// hole, so every key stays reachable from its home without crossing an
// empty slot.
func (m *Map[V]) Delete(k int64) {
	if m.n == 0 {
		return
	}
	mask := len(m.slots) - 1
	i := m.home(k)
	for ; m.slots[i].key != k; i = (i + 1) & mask {
		if !m.slots[i].used {
			return
		}
	}
	if !m.slots[i].used { // an empty slot's key reads 0
		return
	}
	m.n--
	for j := (i + 1) & mask; m.slots[j].used; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies in
		// the cyclic interval (i, j].
		h := m.home(m.slots[j].key)
		if i < j && (h <= i || h > j) || i > j && h <= i && h > j {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = slot[V]{}
}

// grow doubles the table (to 8 slots from empty) and re-places every
// key.
func (m *Map[V]) grow() {
	old := m.slots
	m.slots = make([]slot[V], max(8, 2*len(old)))
	m.shift = uint(65 - bits.Len(uint(len(m.slots))))
	mask := len(m.slots) - 1
	for _, s := range old {
		if s.used {
			i := m.home(s.key)
			for m.slots[i].used {
				i = (i + 1) & mask
			}
			m.slots[i] = s
		}
	}
}
