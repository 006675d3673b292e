package rollback

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestConsumeActualVsDefault(t *testing.T) {
	s := NewStore()
	v, gambled := s.Consume(7, 3, 1)
	if v != 1 || !gambled {
		t.Fatalf("missing value should gamble on default: v=%d gambled=%v", v, gambled)
	}
	s.PutActual(7, 4, 2)
	v, gambled = s.Consume(7, 4, 1)
	if v != 2 || gambled {
		t.Fatalf("present value should be consumed: v=%d gambled=%v", v, gambled)
	}
	st := s.Stats()
	if st.Gambles != 1 || st.Actuals != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestConflictDirtiesIteration(t *testing.T) {
	s := NewStore()
	s.Consume(7, 3, 1) // gamble on 1
	if s.HasDirty() {
		t.Fatal("nothing should be dirty yet")
	}
	if !s.PutActual(7, 3, 0) {
		t.Fatal("conflicting actual must report a conflict")
	}
	if d := s.Dirty(); len(d) != 1 || d[0] != 3 {
		t.Fatalf("dirty = %v", d)
	}
}

func TestMatchingActualNoConflict(t *testing.T) {
	s := NewStore()
	s.Consume(7, 3, 1)
	if s.PutActual(7, 3, 1) {
		t.Fatal("matching actual should not conflict (the gamble paid off)")
	}
	if s.HasDirty() {
		t.Fatal("nothing dirty after a correct gamble")
	}
}

func TestRetract(t *testing.T) {
	s := NewStore()
	s.PutActual(5, 2, 1)
	s.Consume(5, 2, 0)
	if !s.Retract(5, 2) {
		t.Fatal("retracting a consumed value must dirty the iteration")
	}
	// After retraction the value is gone: next consume gambles.
	s.BeginRollback(2)
	v, gambled := s.Consume(5, 2, 9)
	if v != 9 || !gambled {
		t.Fatalf("post-retract consume: v=%d gambled=%v", v, gambled)
	}
	if s.Retract(4, 2) {
		t.Fatal("retracting an unconsumed value should not dirty")
	}
}

func TestRollbackReplayCycle(t *testing.T) {
	s := NewStore()
	// Iteration 1 gambles on two nodes.
	s.Consume(1, 1, 0)
	s.Consume(2, 1, 0)
	// Both actuals arrive; one conflicts.
	s.PutActual(1, 1, 0)
	s.PutActual(2, 1, 1)
	d := s.Dirty()
	if len(d) != 1 || d[0] != 1 {
		t.Fatalf("dirty = %v", d)
	}
	s.BeginRollback(1)
	if s.HasDirty() {
		t.Fatal("BeginRollback must clear the dirty flag")
	}
	// Replay consumes actuals this time.
	if v, g := s.Consume(1, 1, 0); v != 0 || g {
		t.Fatalf("replay node 1: %d %v", v, g)
	}
	if v, g := s.Consume(2, 1, 0); v != 1 || g {
		t.Fatalf("replay node 2: %d %v", v, g)
	}
	if s.Stats().Rollbacks != 1 {
		t.Fatalf("rollbacks = %d", s.Stats().Rollbacks)
	}
}

func TestDirtySorted(t *testing.T) {
	s := NewStore()
	for _, it := range []int64{9, 2, 5} {
		s.Consume(1, it, 0)
		s.PutActual(1, it, 1)
	}
	d := s.Dirty()
	if len(d) != 3 || d[0] != 2 || d[1] != 5 || d[2] != 9 {
		t.Fatalf("dirty = %v", d)
	}
}

func TestPrune(t *testing.T) {
	s := NewStore()
	for it := int64(0); it < 10; it++ {
		s.PutActual(1, it, 1)
		s.Consume(1, it, 1)
	}
	// Dirty iteration 3 must survive pruning.
	s.PutActual(1, 3, 0)
	s.Prune(8)
	if v, g := s.Consume(1, 9, 7); v != 1 || g {
		t.Fatalf("recent value pruned: %d %v", v, g)
	}
	if v, g := s.Consume(1, 1, 7); v != 7 || !g {
		t.Fatalf("old value should be pruned: %d %v", v, g)
	}
	if d := s.Dirty(); len(d) != 1 || d[0] != 3 {
		t.Fatalf("dirty lost by prune: %v", d)
	}
}

// Property: a gamble on the eventually-correct value never dirties; a
// gamble on a wrong value always does.
func TestGambleOutcomeProperty(t *testing.T) {
	f := func(defRaw, actRaw uint8, iter int64, node uint8) bool {
		def := int(defRaw % 4)
		act := int(actRaw % 4)
		s := NewStore()
		s.Consume(int(node), iter, def)
		conflict := s.PutActual(int(node), iter, act)
		if def == act {
			return !conflict && !s.HasDirty()
		}
		return conflict && s.HasDirty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreAgainstOracle drives the Store with random operation
// sequences and checks every observable against a simple reference
// model (maps of actuals and consumed values).
func TestStoreAgainstOracle(t *testing.T) {
	type slot struct {
		node int
		iter int64
	}
	f := func(seed int64, opsRaw []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		actuals := map[slot]int{}
		used := map[slot]int{}
		dirty := map[int64]bool{}

		for _, op := range opsRaw {
			node := int(op % 3)
			iter := int64(op/3) % 4
			k := slot{node, iter}
			switch rng.Intn(4) {
			case 0: // Consume
				def := rng.Intn(3)
				got, gambled := s.Consume(node, iter, def)
				wantVal, haveActual := actuals[k]
				if haveActual {
					if got != wantVal || gambled {
						return false
					}
				} else if got != def || !gambled {
					return false
				}
				used[k] = got
			case 1: // PutActual
				state := rng.Intn(3)
				conflict := s.PutActual(node, iter, state)
				u, wasUsed := used[k]
				wantConflict := wasUsed && u != state
				if conflict != wantConflict {
					return false
				}
				if wantConflict {
					dirty[iter] = true
				}
				actuals[k] = state
			case 2: // Retract
				r := s.Retract(node, iter)
				_, wasUsed := used[k]
				if r != wasUsed {
					return false
				}
				if wasUsed {
					dirty[iter] = true
				}
				delete(actuals, k)
			case 3: // BeginRollback on a dirty iteration, if any
				if len(dirty) == 0 {
					continue
				}
				ds := s.Dirty()
				if len(ds) != len(dirty) {
					return false
				}
				it := ds[0]
				if !dirty[it] {
					return false
				}
				s.BeginRollback(it)
				delete(dirty, it)
				for k := range used {
					if k.iter == it {
						delete(used, k)
					}
				}
			}
			if s.HasDirty() != (len(dirty) > 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestStatesOutsideInt8Panic checks that a cell keeps every state an
// int8 holds and that a state outside that range panics with a message
// instead of being stored truncated.
func TestStatesOutsideInt8Panic(t *testing.T) {
	s := NewStore()
	for _, st := range []int{math.MinInt8, -1, 0, math.MaxInt8} {
		s.PutActual(1, int64(st), st)
		if v, g := s.Consume(1, int64(st), 0); v != st || g {
			t.Errorf("actual %d: Consume = (%d, %v)", st, v, g)
		}
		if v, g := s.Consume(2, int64(st), st); v != st || !g {
			t.Errorf("default %d: Consume = (%d, %v)", st, v, g)
		}
	}
	for name, call := range map[string]func(){
		"PutActual 128":         func() { s.PutActual(1, 0, math.MaxInt8+1) },
		"PutActual -129":        func() { s.PutActual(1, 0, math.MinInt8-1) },
		"Consume default 256":   func() { s.Consume(3, 0, 256) },
		"Consume default -1000": func() { s.Consume(3, 0, -1000) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("%s: no panic", name)
				} else if msg, ok := r.(string); !ok || !strings.Contains(msg, "outside") {
					t.Errorf("%s: panicked with %v", name, r)
				}
			}()
			call()
		}()
	}
}
