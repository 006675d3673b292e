package rollback

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refStore is the map-based ledger the dense Store replaced, kept
// verbatim as the reference: TestStoreMatchesReference and
// FuzzStoreMatchesReference require the Store to give its answers.

type key struct {
	node int
	iter int64
}

type usedRec struct {
	state   int
	gambled bool
}

type refStore struct {
	actual map[key]int
	used   map[int64]map[int]usedRec
	dirty  map[int64]bool
	stats  Stats
}

func newRefStore() *refStore {
	return &refStore{
		actual: make(map[key]int),
		used:   make(map[int64]map[int]usedRec),
		dirty:  make(map[int64]bool),
	}
}

func (s *refStore) Stats() Stats { return s.stats }

func (s *refStore) PutActual(node int, iter int64, state int) bool {
	s.actual[key{node, iter}] = state
	if rec, ok := s.used[iter][node]; ok && rec.state != state {
		s.stats.Conflicts++
		s.dirty[iter] = true
		return true
	}
	return false
}

func (s *refStore) Retract(node int, iter int64) bool {
	delete(s.actual, key{node, iter})
	if _, ok := s.used[iter][node]; ok {
		s.stats.Retracts++
		s.dirty[iter] = true
		return true
	}
	return false
}

func (s *refStore) Consume(node int, iter int64, def int) (state int, gambled bool) {
	if v, ok := s.actual[key{node, iter}]; ok {
		state, gambled = v, false
		s.stats.Actuals++
	} else {
		state, gambled = def, true
		s.stats.Gambles++
	}
	m := s.used[iter]
	if m == nil {
		m = make(map[int]usedRec)
		s.used[iter] = m
	}
	m[node] = usedRec{state, gambled}
	return state, gambled
}

func (s *refStore) Dirty() []int64 {
	out := make([]int64, 0, len(s.dirty))
	//nscc:maporder -- the sort below launders the iteration order
	for it := range s.dirty {
		out = append(out, it)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s *refStore) HasDirty() bool { return len(s.dirty) > 0 }

func (s *refStore) BeginRollback(iter int64) {
	s.stats.Rollbacks++
	delete(s.dirty, iter)
	delete(s.used, iter)
}

func (s *refStore) Prune(iter int64) {
	for k := range s.actual {
		if k.iter < iter && !s.dirty[k.iter] {
			delete(s.actual, k)
		}
	}
	for it := range s.used {
		if it < iter && !s.dirty[it] {
			delete(s.used, it)
		}
	}
}

// op is one step of a script: a ledger call, or the repair pass of
// bayes' handleRollbacks.
type op struct {
	kind  byte
	node  int
	iter  int64
	state int // Consume's default, PutActual's state
}

const (
	opConsume byte = iota
	opPut
	opRetract
	opRollback // BeginRollback(iter), dirty or not
	opRepair   // snapshot Dirty(), then roll back and replay each entry
	opPrune
	numOps
)

var opNames = [numOps]string{"Consume", "PutActual", "Retract", "BeginRollback", "repair", "Prune"}

func (o op) String() string {
	return fmt.Sprintf("%s(node=%d iter=%d state=%d)", opNames[o.kind], o.node, o.iter, o.state)
}

// hugeIters are extreme iterations a script visits now and then.
var hugeIters = []int64{math.MinInt64, math.MinInt64 + 1, -1 << 40, -1 << 32, 1 << 32, 1 << 40, math.MaxInt64 - 1, math.MaxInt64}

// coverage counts the script features TestStoreMatchesReference
// promises to exercise, as seen by the reference.
type coverage struct {
	sparseNodes   int // ops on a node id ≥ 64
	negativeIters int
	hugeIters     int // |iter| ≥ 2^32
	belowPrune    int // PutActual/Retract/Consume below the last Prune point
	pruneOldDirty int // Prune with a dirty iteration older than its horizon
	rollbackDirty int
	rollbackClean int
	heldSnapshots int // repairs whose snapshot outlived at least one BeginRollback
	redirtied     int // repairs that re-dirtied an iteration while holding it
}

// replay runs script on a refStore and a Store side by side and fails
// at the first op after which a return value, Dirty(), HasDirty() or
// Stats() differs, printing the script up to that op. cov, if not nil,
// accumulates what the script covered.
func replay(t *testing.T, script []op, cov *coverage) {
	t.Helper()
	ref, s := newRefStore(), NewStore()
	pruned, havePruned := int64(0), false
	for i, o := range script {
		if cov != nil {
			if o.node >= 64 {
				cov.sparseNodes++
			}
			if o.iter < 0 {
				cov.negativeIters++
			}
			if o.iter <= -1<<32 || o.iter >= 1<<32 {
				cov.hugeIters++
			}
			if havePruned && o.iter < pruned && o.kind <= opRetract {
				cov.belowPrune++
			}
		}
		switch o.kind {
		case opConsume:
			wv, wg := ref.Consume(o.node, o.iter, o.state)
			if v, g := s.Consume(o.node, o.iter, o.state); v != wv || g != wg {
				t.Fatalf("op %d %v = (%d, %v), reference (%d, %v)\nscript: %v", i, o, v, g, wv, wg, script[:i+1])
			}
		case opPut:
			if got, want := s.PutActual(o.node, o.iter, o.state), ref.PutActual(o.node, o.iter, o.state); got != want {
				t.Fatalf("op %d %v = %v, reference %v\nscript: %v", i, o, got, want, script[:i+1])
			}
		case opRetract:
			if got, want := s.Retract(o.node, o.iter), ref.Retract(o.node, o.iter); got != want {
				t.Fatalf("op %d %v = %v, reference %v\nscript: %v", i, o, got, want, script[:i+1])
			}
		case opRollback:
			if cov != nil {
				if ref.dirty[o.iter] {
					cov.rollbackDirty++
				} else {
					cov.rollbackClean++
				}
			}
			ref.BeginRollback(o.iter)
			s.BeginRollback(o.iter)
		case opRepair:
			repair(t, i, o, script[:i+1], ref, s, cov)
		case opPrune:
			if cov != nil {
				for it := range ref.dirty {
					if it < o.iter {
						cov.pruneOldDirty++
						break
					}
				}
			}
			ref.Prune(o.iter)
			s.Prune(o.iter)
			pruned, havePruned = o.iter, true
		}
		same(t, i, o, script[:i+1], ref, s)
	}
}

// repair is bayes' handleRollbacks pass: take the Dirty() snapshot,
// then for each entry BeginRollback and replay a Consume of o.node with
// default o.state. If o.state is odd, the first replay is followed by
// an actual that contradicts it, re-dirtying that iteration while the
// snapshot is held. After every call the snapshot must be unchanged
// and HasDirty and Stats must agree with the reference.
func repair(t *testing.T, i int, o op, script []op, ref *refStore, s *Store, cov *coverage) {
	t.Helper()
	snap, want := s.Dirty(), ref.Dirty()
	if !slices.Equal(snap, want) {
		t.Fatalf("op %d %v: Dirty() = %v, reference %v\nscript: %v", i, o, snap, want, script)
	}
	held := slices.Clone(snap)
	for k, d := range want {
		ref.BeginRollback(d)
		s.BeginRollback(d)
		wv, wg := ref.Consume(o.node, d, o.state)
		if v, g := s.Consume(o.node, d, o.state); v != wv || g != wg {
			t.Fatalf("op %d %v: replay Consume(%d, %d) = (%d, %v), reference (%d, %v)\nscript: %v", i, o, o.node, d, v, g, wv, wg, script)
		}
		if k == 0 && o.state%2 == 1 {
			if cov != nil {
				cov.redirtied++
			}
			if got, want := s.PutActual(o.node, d, wv+1), ref.PutActual(o.node, d, wv+1); got != want || !got {
				t.Fatalf("op %d %v: contradicting PutActual(%d, %d) = %v, reference %v\nscript: %v", i, o, o.node, d, got, want, script)
			}
		}
		if !slices.Equal(snap, held) {
			t.Fatalf("op %d %v: Dirty() snapshot %v changed to %v by the rollback of %d\nscript: %v", i, o, held, snap, d, script)
		}
		if s.HasDirty() != ref.HasDirty() || s.Stats() != ref.Stats() {
			t.Fatalf("op %d %v: after rolling back %d, HasDirty %v Stats %+v, reference %v %+v\nscript: %v",
				i, o, d, s.HasDirty(), s.Stats(), ref.HasDirty(), ref.Stats(), script)
		}
	}
	if cov != nil && len(held) > 0 {
		cov.heldSnapshots++
	}
}

// same fails unless s and ref agree on Dirty(), HasDirty() and Stats().
func same(t *testing.T, i int, o op, script []op, ref *refStore, s *Store) {
	t.Helper()
	if got, want := s.Dirty(), ref.Dirty(); !slices.Equal(got, want) {
		t.Fatalf("after op %d %v: Dirty() = %v, reference %v\nscript: %v", i, o, got, want, script)
	}
	if got, want := s.HasDirty(), ref.HasDirty(); got != want {
		t.Fatalf("after op %d %v: HasDirty() = %v, reference %v\nscript: %v", i, o, got, want, script)
	}
	if got, want := s.Stats(), ref.Stats(); got != want {
		t.Fatalf("after op %d %v: Stats() = %+v, reference %+v\nscript: %v", i, o, got, want, script)
	}
}

// genScript draws a script over a few node ids, some of them sparse,
// and a window of iterations that slides forward from a base that may
// be negative. Some ops land below the last Prune point and a few on
// extreme iterations; Prune horizons fall inside the window, so dirty
// iterations older than the horizon are common.
func genScript(rng *rand.Rand) []op {
	nodes := make([]int, 1+rng.Intn(6))
	for i := range nodes {
		switch rng.Intn(3) {
		case 0:
			nodes[i] = rng.Intn(8)
		case 1:
			nodes[i] = rng.Intn(64)
		default:
			nodes[i] = 64 + rng.Intn(4096)
		}
	}
	weights := [numOps]int{opConsume: 30, opPut: 30, opRetract: 8, opRollback: 10, opRepair: 8, opPrune: 6}
	total := 0
	for _, w := range weights {
		total += w
	}
	base := int64(rng.Intn(64)) - 48
	pruned := base
	script := make([]op, 20+rng.Intn(180))
	for i := range script {
		o := op{node: nodes[rng.Intn(len(nodes))], state: rng.Intn(3)}
		for w := rng.Intn(total); w >= weights[o.kind]; o.kind++ {
			w -= weights[o.kind]
		}
		switch r := rng.Intn(100); {
		case r < 2:
			o.iter = hugeIters[rng.Intn(len(hugeIters))]
		case r < 14:
			o.iter = pruned - 1 - int64(rng.Intn(6))
		default:
			o.iter = base + int64(rng.Intn(10))
		}
		if o.kind == opPrune && o.iter < 1<<32 && o.iter > -1<<32 {
			o.iter = base + int64(rng.Intn(10))
			pruned = o.iter
		}
		script[i] = o
		base += int64(rng.Intn(2))
	}
	return script
}

// TestStoreMatchesReference runs thousands of generated scripts on the
// dense Store and the map reference, and checks that the scripts
// covered every feature they are meant to.
func TestStoreMatchesReference(t *testing.T) {
	const scripts = 4000
	rng := rand.New(rand.NewSource(1))
	var cov coverage
	for n := 0; n < scripts; n++ {
		replay(t, genScript(rng), &cov)
	}
	for _, c := range []struct {
		name string
		n    int
	}{
		{"ops on sparse node ids", cov.sparseNodes},
		{"ops on negative iterations", cov.negativeIters},
		{"ops on huge iterations", cov.hugeIters},
		{"PutActual/Retract/Consume below the last Prune point", cov.belowPrune},
		{"Prunes with a dirty iteration older than the horizon", cov.pruneOldDirty},
		{"BeginRollbacks on dirty iterations", cov.rollbackDirty},
		{"BeginRollbacks on clean iterations", cov.rollbackClean},
		{"Dirty() snapshots held across BeginRollbacks", cov.heldSnapshots},
		{"repairs that re-dirtied an iteration in their snapshot", cov.redirtied},
	} {
		if c.n < 200 {
			t.Errorf("%d scripts covered only %d %s, want ≥ 200", scripts, c.n, c.name)
		}
	}
}

// fuzzNodes are the node ids a fuzz byte can name: dense and sparse.
var fuzzNodes = [8]int{0, 1, 2, 3, 7, 55, 64, 4095}

// decodeScript reads three bytes per op: the kind (and, above numOps,
// the state), the node, and the iteration, which is one of hugeIters
// for bytes ≥ 248 and byte−124 otherwise.
func decodeScript(data []byte) []op {
	script := make([]op, 0, len(data)/3)
	for ; len(data) >= 3; data = data[3:] {
		o := op{
			kind:  data[0] % numOps,
			state: int(data[0]/numOps) % 3,
			node:  fuzzNodes[data[1]%byte(len(fuzzNodes))],
			iter:  int64(data[2]) - 124,
		}
		if data[2] >= 248 {
			o.iter = hugeIters[data[2]-248]
		}
		script = append(script, o)
	}
	return script
}

// FuzzStoreMatchesReference holds the Store to the map reference on
// arbitrary scripts over the same op alphabet as the generated test.
func FuzzStoreMatchesReference(f *testing.F) {
	// Gamble at 124 (iteration 0), conflict, repair.
	f.Add([]byte{0, 0, 124, 1 + numOps, 0, 124, 4, 0, 124})
	// A dirty iteration below a Prune horizon, then ops on it.
	f.Add([]byte{0, 6, 110, 1 + numOps, 6, 110, 0, 1, 112, 5, 0, 130, 0, 1, 112, 1, 6, 110, 3, 0, 110, 2, 6, 110})
	// Extreme iterations and a Prune at MaxInt64.
	f.Add([]byte{0, 7, 248, 1 + 2*numOps, 7, 248, 0, 3, 255, 5, 0, 255, 4 + numOps, 7, 0, 0, 7, 248})
	// An odd-state repair re-dirties while its snapshot is held.
	f.Add([]byte{0, 2, 100, 0, 2, 101, 1 + numOps, 2, 100, 1 + numOps, 2, 101, 4 + numOps, 2, 0, 4, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		replay(t, decodeScript(data), nil)
	})
}
