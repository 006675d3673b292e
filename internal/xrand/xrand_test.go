package xrand

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// bounds are the Intn/Int63n arguments the differential tests draw
// from: powers of two (the masking path), small and large non-powers
// (the rejection path), and values above int32max, where Intn switches
// from Int31n to Int63n.
var bounds = []int64{
	1, 2, 3, 7, 8, 10, 50, 100, 240, 1000, 1 << 20, 1<<30 + 1,
	1<<31 - 1, 1 << 31, 1<<31 + 1, 1<<40 + 3, math.MaxInt64 / 3, 1 << 62, math.MaxInt64,
}

// probs are the FlipBelow probabilities: the GA's mutation and
// crossover rates, the jitterers' patch rates, and the edges of [0, 1].
var probs = []float64{0, 1e-300, 0.001, 0.015, 0.1, 0.5, 0.6, 1 - 1e-16, 1, 2}

// numOps is the number of distinct draws step exercises.
const numOps = 10

// step makes one draw, chosen by op with argument a, from both
// generators and reports whether the results agree bit for bit.
func step(x *Rand, r *rand.Rand, op, a byte) (string, bool) {
	switch op % numOps {
	case 0:
		return "Int63", x.Int63() == r.Int63()
	case 1:
		return "Uint64", x.Uint64() == r.Uint64()
	case 2:
		return "Int31", x.Int31() == r.Int31()
	case 3:
		n := int32(bounds[int(a)%len(bounds)] % math.MaxInt32)
		if n <= 0 {
			n = 1
		}
		return "Int31n", x.Int31n(n) == r.Int31n(n)
	case 4:
		n := bounds[int(a)%len(bounds)]
		return "Int63n", x.Int63n(n) == r.Int63n(n)
	case 5:
		n := int(bounds[int(a)%len(bounds)])
		return "Intn", x.Intn(n) == r.Intn(n)
	case 6:
		return "Float64", math.Float64bits(x.Float64()) == math.Float64bits(r.Float64())
	case 7:
		return "NormFloat64", math.Float64bits(x.NormFloat64()) == math.Float64bits(r.NormFloat64())
	case 8:
		return "ExpFloat64", math.Float64bits(x.ExpFloat64()) == math.Float64bits(r.ExpFloat64())
	default:
		// 0 to 765 tests: long enough for runs that end at a wrap of the
		// 607-word register and restart after it.
		p := probs[int(a)%len(probs)]
		return "FlipBelow", slices.Equal(x.FlipBelow(nil, 3*int(a), Threshold(p)), perTest(r, 3*int(a), p))
	}
}

// perTest is FlipBelow's contract spelled out: n tests Float64() < p,
// one per index, and the indices of those that hold.
func perTest(r *rand.Rand, n int, p float64) []int {
	var held []int
	for i := 0; i < n; i++ {
		if r.Float64() < p {
			held = append(held, i)
		}
	}
	return held
}

// TestStreamMatchesMathRand interleaves every method over seeds that
// cover Seed's reductions: zero (the 89482311 substitute), negatives,
// int32max (which reduces to zero), and seeds above it.
func TestStreamMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 42, -7777, 2000, 2001, 1<<31 - 1, 1 << 31, 1<<31 + 5,
		1<<40 + 3, math.MaxInt64, math.MinInt64,
	}
	calls := 100_000
	if testing.Short() {
		calls = 10_000
	}
	for _, seed := range seeds {
		x, r := New(seed), rand.New(rand.NewSource(seed))
		pick := rand.New(rand.NewSource(seed ^ 0x5eed))
		for i := 0; i < calls; i++ {
			op, a := byte(pick.Intn(numOps)), byte(pick.Intn(256))
			if name, ok := step(x, r, op, a); !ok {
				t.Fatalf("seed %d: call %d (%s, arg %d) diverges from math/rand", seed, i, name, a)
			}
		}
	}
}

// TestFloat64Resample pins the value Float64 resamples from: the
// largest Int63 below Resample still maps below 1, Resample itself
// rounds to exactly 1.
func TestFloat64Resample(t *testing.T) {
	if f := float64(Resample-1) / (1 << 63); f >= 1 {
		t.Fatalf("float64(Resample-1)/2^63 = %v, want < 1", f)
	}
	if f := float64(Resample) / (1 << 63); f != 1 {
		t.Fatalf("float64(Resample)/2^63 = %v, want 1", f)
	}
}

// TestThresholdMatchesFloat64 checks the integer Bernoulli threshold
// against Float64() < M around the threshold and at the resample
// boundary: v in [thr-2, thr+2], 1<<63-513 (the last value Float64
// keeps), 1<<63-512 (the first it resamples) and 1<<63-1.
func TestThresholdMatchesFloat64(t *testing.T) {
	for _, m := range []float64{0, 1e-300, 0.001, 0.6, 1, 0.015, 2, -1, math.NaN()} {
		thr := Threshold(m)
		vs := []int64{1<<63 - 513, 1<<63 - 512, 1<<63 - 1}
		for d := int64(-2); d <= 2; d++ {
			if v := thr + d; v >= 0 {
				vs = append(vs, v)
			}
		}
		for _, v := range vs {
			f := float64(v) / (1 << 63)
			if resampled := f == 1; resampled != (v >= Resample) {
				t.Fatalf("v=%d: Float64 resamples=%v, but v >= Resample is %v", v, resampled, v >= Resample)
			}
			if v >= Resample {
				continue
			}
			if got, want := v < thr, f < m; got != want {
				t.Fatalf("M=%v thr=%d v=%d: v < thr is %v, Float64() < M is %v", m, thr, v, got, want)
			}
		}
	}
	if got := Threshold(1); got != Resample {
		t.Fatalf("Threshold(1) = %d, want Resample: every kept draw is below 1", got)
	}
	if got := Threshold(1e-300); got != 1 {
		t.Fatalf("Threshold(1e-300) = %d, want 1: only v=0 maps below it", got)
	}
}

// FuzzStreamMatchesMathRand drives both generators with an arbitrary
// seed and op sequence: each byte pair picks a method and its argument.
func FuzzStreamMatchesMathRand(f *testing.F) {
	f.Add(int64(0), []byte{0, 0, 1, 0, 2, 0, 3, 5, 4, 9, 5, 13, 6, 0, 7, 0, 8, 0, 9, 2})
	f.Add(int64(-1), []byte{5, 15, 5, 16, 4, 18, 9, 9, 7, 7, 8, 8})
	f.Add(int64(1<<31-1), []byte{6, 6, 6, 6, 9, 1, 9, 8})
	f.Add(int64(math.MinInt64), []byte{3, 11, 3, 12, 0, 1})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		x, r := New(seed), rand.New(rand.NewSource(seed))
		for i := 0; i+1 < len(ops); i += 2 {
			if name, ok := step(x, r, ops[i], ops[i+1]); !ok {
				t.Fatalf("seed %d: op %d (%s, arg %d) diverges from math/rand", seed, i/2, name, ops[i+1])
			}
		}
	})
}

// flipPerDraw is the per-test loop FlipBelow replaced: one Int63 draw
// per test, and another for each resample, each compared with t.
func flipPerDraw(r *Rand, n int, t int64) []int {
	var held []int
	for i := 0; i < n; i++ {
		for {
			if v := r.Int63(); v < Resample {
				if v < t {
					held = append(held, i)
				}
				break
			}
		}
	}
	return held
}

// TestFlipBelowResample plants register words so that chosen draws land
// in [Resample, 2^63), where Float64 draws again: draws inside a run,
// two in a row, the draw that wraps feed, and the draws just after it.
// No random stream reaches this branch (it fires with probability 2^-54
// per draw), so FlipBelow is compared with the per-draw loop on the
// planted register: the same indices, and the same register after. A
// math/rand generator over a copy of the register checks the indices
// against Float64() < p itself, from 0 to 765 tests.
func TestFlipBelowResample(t *testing.T) {
	r := New(7)
	for r.src.feed != 40 {
		r.Uint64()
	}
	// Draw d (counted from here) adds vec[feed_d] and vec[tap_d]. Below
	// draw 273 neither word has been written by an earlier draw, and a
	// planted feed word is read by no earlier draw, so each plant sets
	// exactly its own draw's sum.
	at := func(i, d int) int { return ((i-1-d)%rngLen + rngLen) % rngLen }
	planted := map[int]bool{3: true, 17: true, 18: true, 39: true, 40: true, 41: true, 200: true}
	for d := range planted {
		sum := uint64(Resample) + uint64(d)
		if d%2 == 1 {
			sum |= 1 << 63 // the sign bit is masked off before the test
		}
		f, tp := at(r.src.feed, d), at(r.src.tap, d)
		r.src.vec[f] = int64(sum - uint64(r.src.vec[tp]))
	}
	probe := &Rand{src: r.src}
	for d := 0; d < 273; d++ {
		if v := probe.Int63(); (v >= Resample) != planted[d] {
			t.Fatalf("draw %d: v=%d, planted=%v", d, v, planted[d])
		}
	}

	for _, p := range []float64{0.001, 0.5, 1} {
		thr := Threshold(p)
		for _, n := range []int{0, 1, 39, 40, 41, 320, 607, 765} {
			got, want := &Rand{src: r.src}, &Rand{src: r.src}
			src := r.src
			gi, wi := got.FlipBelow(nil, n, thr), flipPerDraw(want, n, thr)
			if !slices.Equal(gi, wi) {
				t.Fatalf("p=%v n=%d: FlipBelow reported %v, per-draw loop %v", p, n, gi, wi)
			}
			if fi := perTest(rand.New(&src), n, p); !slices.Equal(gi, fi) {
				t.Fatalf("p=%v n=%d: FlipBelow reported %v, Float64() < p held at %v", p, n, gi, fi)
			}
			if got.src != want.src || got.src != src {
				t.Fatalf("p=%v n=%d: register differs after FlipBelow (tap %d feed %d) and the per-draw loop (tap %d feed %d)",
					p, n, got.src.tap, got.src.feed, want.src.tap, want.src.feed)
			}
		}
	}
	// Indices append to what dst already holds.
	if got := New(1).FlipBelow([]int{-1}, 3, Threshold(1)); !slices.Equal(got, []int{-1, 0, 1, 2}) {
		t.Fatalf("FlipBelow on a non-empty dst = %v, want [-1 0 1 2]", got)
	}
}
