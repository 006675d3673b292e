package rollback

import "testing"

// cycle is one iteration of the ledger's op mix in a rollback-heavy
// run: gamble on four remote nodes, receive four conflicting actuals,
// roll the iteration back and replay its four consumes, pruning every
// 16 iterations.
func cycle(s *Store, it int64) {
	for node := 0; node < 4; node++ {
		s.Consume(node, it, 0)
		s.PutActual(node, it, 1)
	}
	s.BeginRollback(it)
	for node := 0; node < 4; node++ {
		s.Consume(node, it, 0)
	}
	if it%16 == 15 {
		s.Prune(it - 16)
	}
}

// BenchmarkCycle times one cycle per op.
func BenchmarkCycle(b *testing.B) {
	b.ReportAllocs()
	s := NewStore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(s, int64(i))
	}
}

// TestCycleDoesNotAllocate requires a warmed-up store to run cycles
// without allocating: rows come back through Prune's free list, and the
// dirty list and Dirty's buffer keep their capacity.
func TestCycleDoesNotAllocate(t *testing.T) {
	s := NewStore()
	it := int64(0)
	for ; it < 1024; it++ {
		cycle(s, it)
	}
	if avg := testing.AllocsPerRun(4096, func() {
		cycle(s, it)
		it++
	}); avg != 0 {
		t.Fatalf("%v allocations per cycle, want 0", avg)
	}
}
