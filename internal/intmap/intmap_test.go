package intmap

import (
	"encoding/binary"
	"testing"
)

// check fails the test unless m holds exactly ref and every key sits
// where a lookup finds it: in the run of occupied slots that starts at
// or before its home.
func check(t *testing.T, op int, m *Map[int32], ref map[int64]int32) {
	t.Helper()
	if m.n != len(ref) {
		t.Fatalf("op %d: %d keys, want %d", op, m.n, len(ref))
	}
	used := 0
	mask := len(m.slots) - 1
	for i, s := range m.slots {
		if !s.used {
			continue
		}
		used++
		if v, ok := ref[s.key]; !ok || v != s.val {
			t.Fatalf("op %d: slot %d holds %d→%d, reference has %d (present %v)", op, i, s.key, s.val, v, ok)
		}
		for j := m.home(s.key); j != i; j = (j + 1) & mask {
			if !m.slots[j].used {
				t.Fatalf("op %d: key %d at slot %d is cut off from its home %d by empty slot %d",
					op, s.key, i, m.home(s.key), j)
			}
		}
	}
	if used != len(ref) {
		t.Fatalf("op %d: %d slots used, want %d", op, used, len(ref))
	}
	if 4*m.n > 3*len(m.slots) {
		t.Fatalf("op %d: %d keys in %d slots, over three quarters full", op, m.n, len(m.slots))
	}
}

// FuzzMapMatchesGoMap decodes a sequence of puts, upserts, gets and
// deletes, three bytes an operation, and checks the table against a Go
// map after each. The key byte's top bits pick a key space: dense small
// keys, negative ones, multiples of the table's sizes (which an
// identity hash would pile onto one slot) or full-width values.
func FuzzMapMatchesGoMap(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0, 2, 6, 2, 1, 0, 3, 1, 0, 1, 1, 0})
	f.Add([]byte{0x40, 0x41, 1, 0x80, 0x81, 2, 0xc0, 0xc1, 3, 0x43, 0x41, 0, 0x42, 0x80, 0})
	f.Add([]byte{0, 0, 1, 0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 4, 1, 0, 5, 1, 3, 2, 0, 3, 0, 0, 2, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Map[int32]
		ref := map[int64]int32{}
		for op := 0; len(data) >= 3; op++ {
			code, kb, v := data[0], data[1], int32(data[2])
			data = data[3:]
			var k int64
			switch kb >> 6 {
			case 0:
				k = int64(kb & 63)
			case 1:
				k = -int64(kb & 63)
			case 2:
				k = int64(kb&63) << 10
			default:
				k = int64(binary.LittleEndian.Uint64([]byte{kb, code, byte(v), kb ^ 0x5a, 1, 2, 3, kb}))
			}
			switch code % 4 {
			case 0:
				m.Put(k, v)
				ref[k] = v
			case 1:
				p, ok := m.Upsert(k)
				if _, want := ref[k]; ok != want {
					t.Fatalf("op %d: Upsert(%d) reported present %v, want %v", op, k, ok, want)
				}
				*p += v
				ref[k] += v
			case 2:
				got, ok := m.Get(k)
				want, wantOK := ref[k]
				if got != want || ok != wantOK {
					t.Fatalf("op %d: Get(%d) = %d, %v; want %d, %v", op, k, got, ok, want, wantOK)
				}
			default:
				m.Delete(k)
				delete(ref, k)
			}
			check(t, op, &m, ref)
		}
		for k, want := range ref {
			if got, ok := m.Get(k); !ok || got != want {
				t.Fatalf("Get(%d) = %d, %v at the end; want %d, true", k, got, ok, want)
			}
		}
	})
}

// TestConsecutiveKeysSpread checks that keys a ledger or a run's dense
// ids produce, consecutive integers, do not form long runs of occupied
// slots, and that deleting the oldest while inserting new ones, as the
// ledger's Prune does, keeps the runs short.
func TestConsecutiveKeysSpread(t *testing.T) {
	var m Map[int32]
	longest := func() int {
		best, run := 0, 0
		for i := 0; i < 2*len(m.slots); i++ {
			if m.slots[i%len(m.slots)].used {
				run++
				best = max(best, run)
			} else {
				run = 0
			}
		}
		return best
	}
	const n = 1 << 12
	for k := int64(0); k < n; k++ {
		m.Put(k, int32(k))
	}
	if l := longest(); l > 8 {
		t.Fatalf("%d consecutive keys in %d slots: longest occupied run %d, want at most 8", n, len(m.slots), l)
	}
	for k := int64(n); k < 8*n; k++ {
		m.Delete(k - n)
		m.Put(k, int32(k))
	}
	if l := longest(); l > 8 || m.n != n {
		t.Fatalf("after sliding the window: %d keys, longest occupied run %d; want %d and at most 8", m.n, l, n)
	}
}

// TestZeroValueAndAbsentKeys checks the empty map and absent keys: an
// empty map reads zero, deleting from it or deleting an absent key is a
// no-op, and key 0 is a key like any other.
func TestZeroValueAndAbsentKeys(t *testing.T) {
	var m Map[string]
	if v, ok := m.Get(0); ok || v != "" {
		t.Fatalf("empty map Get(0) = %q, %v", v, ok)
	}
	m.Delete(0)
	m.Put(0, "zero")
	m.Delete(8)
	if v, ok := m.Get(0); !ok || v != "zero" || m.n != 1 {
		t.Fatalf("Get(0) = %q, %v with %d keys; want \"zero\", true, 1", v, ok, m.n)
	}
	m.Delete(0)
	if _, ok := m.Get(0); ok || m.n != 0 {
		t.Fatalf("key 0 still present after Delete (%d keys)", m.n)
	}
}

// TestSteadyStateAllocsZero checks that a table that has reached its
// size inserts and deletes without allocating.
func TestSteadyStateAllocsZero(t *testing.T) {
	var m Map[int32]
	k := int64(0)
	for ; k < 64; k++ {
		m.Put(k, 1)
	}
	if a := testing.AllocsPerRun(1000, func() {
		m.Delete(k - 64)
		m.Put(k, 1)
		k++
	}); a != 0 {
		t.Fatalf("a steady-state delete and insert allocates %.1f times, want 0", a)
	}
}
