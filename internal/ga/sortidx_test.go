package ga

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// ascending and descending are the comparators the GA sorted its index
// permutations with before sortIdx: fittest first (BestK, bestOfPool)
// and worst first (ReplaceWorst).
func ascending(key []float64) func(a, b int) int {
	return func(a, b int) int {
		switch {
		case key[a] < key[b]:
			return -1
		case key[a] > key[b]:
			return 1
		}
		return 0
	}
}

func descending(key []float64) func(a, b int) int {
	return func(a, b int) int {
		switch {
		case key[a] > key[b]:
			return -1
		case key[a] < key[b]:
			return 1
		}
		return 0
	}
}

// adversary returns keys on which slices.SortFunc degrades: McIlroy's
// quicksort adversary, which leaves every element "gas" (unknown, and
// larger than everything known) until a comparison forces it solid, and
// solidifies the pivot candidate first. Replaying the frozen keys
// reproduces every comparison, so the sort repeats its bad pivots and
// takes the pattern-breaking and heapsort-fallback paths. With
// tieEvery > 0, every tieEvery-th gas-gas comparison freezes both sides
// to one value, so the heapsort fallback also meets equal keys.
func adversary(n, tieEvery int) []float64 {
	gas, freezes := n, 0
	val := make([]int, n)
	for i := range val {
		val[i] = gas
	}
	solid, candidate := 0, 0
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		if val[a] == gas && val[b] == gas {
			freezes++
			switch {
			case tieEvery > 0 && freezes%tieEvery == 0:
				val[a], val[b] = solid, solid
			case a == candidate:
				val[a] = solid
			default:
				val[b] = solid
			}
			solid++
		}
		if val[a] == gas {
			candidate = a
		} else if val[b] == gas {
			candidate = b
		}
		return val[a] - val[b]
	})
	key := make([]float64, n)
	for i, v := range val {
		key[i] = float64(v)
	}
	return key
}

// keyPatterns are the inputs the differential test sorts at each n:
// random, heavy ties, presorted, reversed, sawtooth, signed zeros, and
// the adversary with and without forced ties.
var keyPatterns = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []float64
}{
	{"random", func(rng *rand.Rand, n int) []float64 {
		k := make([]float64, n)
		for i := range k {
			k[i] = rng.NormFloat64()
		}
		return k
	}},
	{"ties4", func(rng *rand.Rand, n int) []float64 {
		k := make([]float64, n)
		for i := range k {
			k[i] = float64(rng.Intn(4))
		}
		return k
	}},
	{"ties2", func(rng *rand.Rand, n int) []float64 {
		k := make([]float64, n)
		for i := range k {
			k[i] = float64(rng.Intn(2))
		}
		return k
	}},
	{"sorted", func(_ *rand.Rand, n int) []float64 {
		k := make([]float64, n)
		for i := range k {
			k[i] = float64(i)
		}
		return k
	}},
	{"sorted-perturbed", func(rng *rand.Rand, n int) []float64 {
		k := make([]float64, n)
		for i := range k {
			k[i] = float64(i)
		}
		for s := 0; s < 3 && n > 1; s++ {
			i := rng.Intn(n - 1)
			k[i], k[i+1] = k[i+1], k[i]
		}
		return k
	}},
	{"reversed", func(_ *rand.Rand, n int) []float64 {
		k := make([]float64, n)
		for i := range k {
			k[i] = float64(n - i)
		}
		return k
	}},
	{"sawtooth", func(_ *rand.Rand, n int) []float64 {
		k := make([]float64, n)
		for i := range k {
			k[i] = float64(i % 17)
		}
		return k
	}},
	{"organ-pipe", func(_ *rand.Rand, n int) []float64 {
		k := make([]float64, n)
		for i := range k {
			k[i] = float64(min(i, n-1-i))
		}
		return k
	}},
	{"signed-zeros", func(rng *rand.Rand, n int) []float64 {
		vals := []float64{math.Copysign(0, -1), 0, 1, -1}
		k := make([]float64, n)
		for i := range k {
			k[i] = vals[rng.Intn(len(vals))]
		}
		return k
	}},
	{"adversary", func(_ *rand.Rand, n int) []float64 { return adversary(n, 0) }},
	{"adversary-ties2", func(_ *rand.Rand, n int) []float64 { return adversary(n, 2) }},
	{"adversary-ties3", func(_ *rand.Rand, n int) []float64 { return adversary(n, 3) }},
	{"adversary-ties5", func(_ *rand.Rand, n int) []float64 { return adversary(n, 5) }},
}

// TestSortIdxMatchesSlicesSortFunc is the differential test of the
// specialised sort: for every n up to 512 and every key pattern, the
// index permutation must equal slices.SortFunc's with the GA's old
// comparators, ascending on the keys and descending through the
// negated keys ReplaceWorst sorts by. A sort stopped at a head must
// leave its first head positions exactly as the full sort does, at
// heads 0, 1, 25 (a migrant block), n/2, n-1 and n.
func TestSortIdxMatchesSlicesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range keyPatterns {
		for n := 0; n <= 512; n++ {
			key := p.gen(rng, n)
			neg := make([]float64, n)
			for i, k := range key {
				neg[i] = -k
			}
			for _, c := range []struct {
				dir  string
				key  []float64
				want func(a, b int) int
			}{
				{"ascending", key, ascending(key)},
				{"descending", neg, descending(key)},
			} {
				want := identity(n)
				slices.SortFunc(want, c.want)
				for _, head := range []int{n, 0, 1, 25, n / 2, n - 1} {
					head = max(0, min(head, n))
					got := identity(n)
					sortIdx(got, c.key, head)
					if !slices.Equal(got[:head], want[:head]) {
						t.Fatalf("%s n=%d %s head=%d: sortIdx prefix differs from slices.SortFunc", p.name, n, c.dir, head)
					}
				}
			}
		}
	}
}

func identity(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// FuzzSortIdxHead sorts keys decoded from arbitrary bytes, two bytes a
// key, to an arbitrary head: the prefix must equal the full sort's. A
// key's first byte picks one of 32 small values (so ties are common),
// +0, -0, NaN or ±Inf; the second byte perturbs the small values so
// that near-ties occur too.
func FuzzSortIdxHead(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0}, 1)
	f.Add([]byte{0, 0, 33, 0, 34, 0, 35, 0, 1, 0, 2, 0}, 3)
	f.Add(make([]byte, 200), 50)
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"), 7)
	f.Fuzz(func(t *testing.T, data []byte, head int) {
		n := len(data) / 2
		key := make([]float64, n)
		for i := range key {
			switch b := data[2*i]; b % 40 {
			case 32:
				key[i] = 0
			case 33:
				key[i] = math.Copysign(0, -1)
			case 34:
				key[i] = math.NaN()
			case 35:
				key[i] = math.Inf(1)
			case 36:
				key[i] = math.Inf(-1)
			default:
				key[i] = float64(b%32) + float64(data[2*i+1]%4)/1024
			}
		}
		if n > 0 {
			head = int(uint(head) % uint(n+1))
		} else {
			head = 0
		}
		full, got := identity(n), identity(n)
		sortIdx(full, key, n)
		sortIdx(got, key, head)
		if !slices.Equal(got[:head], full[:head]) {
			t.Fatalf("n=%d head=%d: prefix %v, full sort %v", n, head, got[:head], full[:head])
		}
		want := identity(n)
		slices.SortFunc(want, ascending(key))
		if !slices.Equal(full, want) {
			t.Fatalf("n=%d: full sortIdx differs from slices.SortFunc", n)
		}
	})
}
