// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the Go distribution's LICENSE file.
//
// The generator below is math/rand's default source (rng.go) and the
// draw arithmetic of its Rand methods (rand.go), copied so that the
// hot paths call a concrete type instead of the Source interface.

// Package xrand is math/rand's seeded generator as a concrete,
// inlinable type. New(seed) yields exactly the stream of
// rand.New(rand.NewSource(seed)), method for method: Go 1's
// compatibility promise freezes that stream, so every simulation that
// replays from a seed keeps its bytes, while the GA and network hot
// paths draw without two indirect calls per number.
//
// The source is the Mitchell–Reeds additive lagged Fibonacci generator
// x[n] = x[n-273] + x[n-607] mod 2^64, seeded by a Park–Miller LCG
// XORed with a fixed table (cooked.go) that cannot be regenerated
// cheaply: math/rand's gen_cooked.go runs 7.8e12 steps to produce it.
//
// One method goes beyond math/rand's API: FlipBelow, which the GA's
// per-bit mutation calls, makes n Bernoulli tests at once and reports
// the indices of those that hold; it knows nothing of chromosomes. Its
// draw contract is that of one Float64() < p test per index, in index
// order, resamples included: after it, every later draw matches
// math/rand's stream exactly as if those Float64 calls had been made.
package xrand

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// Resample is the smallest Int63 value that Float64 draws again:
// from it up, float64(v)/(1<<63) rounds to 1.0, outside Float64's
// [0, 1) range, so math/rand discards the value and draws another.
const Resample = 1<<63 - 512

// source is the generator state. It implements rand.Source64, so a
// math/rand façade over it draws from the same stream.
type source struct {
	tap  int           // index into vec
	feed int           // index into vec
	vec  [rngLen]int64 // current feedback register
}

// seedrand is the seeding LCG: x[n+1] = 48271 * x[n] mod (2**31 - 1).
func seedrand(x int32) int32 {
	const (
		A = 48271
		Q = 44488
		R = 3399
	)
	hi := x / Q
	lo := x % Q
	x = A*lo - R*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// Seed initializes the register exactly as math/rand's source does.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}

	x := int32(seed)
	for i := -20; i < rngLen; i++ {
		x = seedrand(x)
		if i >= 0 {
			var u int64
			u = int64(x) << 40
			x = seedrand(x)
			u ^= int64(x) << 20
			x = seedrand(x)
			u ^= int64(x)
			u ^= rngCooked[i]
			s.vec[i] = u
		}
	}
}

// Uint64 advances the generator one step.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is Uint64 with the sign bit cleared.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Rand is one seeded stream. It is not safe for concurrent use.
type Rand struct {
	src source
	std *rand.Rand // math/rand over src, for the ziggurat draws
}

// New returns the stream of rand.New(rand.NewSource(seed)).
func New(seed int64) *Rand {
	r := &Rand{}
	r.src.Seed(seed)
	r.std = rand.New(&r.src)
	return r
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *Rand) Int63() int64 { return r.src.Int63() }

// Uint64 returns a pseudo-random 64-bit value.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// Int31 returns a non-negative pseudo-random 31-bit integer.
func (r *Rand) Int31() int32 { return int32(r.Int63() >> 32) }

// Int63n returns a non-negative pseudo-random number in [0, n). It
// panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 { // n is power of two, can mask
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Int31n returns a non-negative pseudo-random number in [0, n). It
// panics if n <= 0.
func (r *Rand) Int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 { // n is power of two, can mask
		return r.Int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.Int31()
	for v > max {
		v = r.Int31()
	}
	return v % n
}

// Intn returns a non-negative pseudo-random number in [0, n). It
// panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// Float64 returns a pseudo-random number in [0, 1): Go 1's
// float64(Int63())/(1<<63), drawn again whenever that rounds to 1.
func (r *Rand) Float64() float64 {
	for {
		if v := r.Int63(); v < Resample {
			return float64(v) / (1 << 63)
		}
	}
}

// Threshold returns the integer form of the event Float64() < p: the
// smallest v with float64(v)/(1<<63) >= p, capped at Resample. For
// every v below Resample, v < Threshold(p) exactly when
// float64(v)/(1<<63) < p, because the conversion is monotone in v.
func Threshold(p float64) int64 {
	if !(p > 0) {
		return 0 // also NaN: Float64() < NaN never holds
	}
	lo, hi := int64(0), int64(Resample)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// FlipBelow makes n tests of the event Float64() < p, t = Threshold(p),
// and appends to dst the index (0 to n-1) of each test that holds, in
// increasing order. It consumes exactly the draws of those n tests,
// resamples included, so the stream continues as if Float64 had been
// called once per test (and again per resample), without the float
// conversion. What the indices mean, the GA's bits to flip, is the
// caller's business.
//
// The generator steps in runs of draws that cannot wrap tap or feed:
// a run is at most min(tap, feed) draws, so inside it both indices
// just count down through two windows of the register and are never
// tested for a wrap. A run also ends at the last test still to make; a
// resample spends a draw of the run without using up a test. With tap
// or feed at zero, one draw goes through Uint64, which wraps the
// index. Since t <= Resample, one unsigned comparison classifies the
// common draw, kept and not below t: v in [t, Resample).
func (r *Rand) FlipBelow(dst []int, n int, t int64) []int {
	s := &r.src
	keep := uint64(Resample - t)
	i := 0
	for i < n {
		tap, feed := s.tap, s.feed
		m := min(tap, feed, n-i)
		if m == 0 {
			if v := s.Int63(); v < Resample {
				if v < t {
					dst = append(dst, i)
				}
				i++
			}
			continue
		}
		// The run walks both windows top down, as the per-draw steps
		// walk feed and tap. The windows may overlap (a word written as
		// feed is read as tap 273 draws later); the in-order loop sees
		// that write, as the per-draw steps do. The inner loop takes
		// common draws only and stops at any other, below t or a
		// resample, which the outer loop settles before resuming.
		fv := s.vec[feed-m : feed]
		tv := s.vec[tap-m : tap]
		for len(fv) > 0 {
			tv = tv[:len(fv)]
			k := len(fv) - 1
			for ; k >= 0; k-- {
				x := fv[k] + tv[k]
				fv[k] = x
				if uint64(int64(uint64(x)&rngMask)-t) >= keep {
					break
				}
			}
			i += len(fv) - 1 - k
			if k < 0 {
				break
			}
			if int64(uint64(fv[k])&rngMask) < t {
				dst = append(dst, i)
				i++
			} // else a resample, which makes no test
			fv = fv[:k]
		}
		s.tap, s.feed = tap-m, feed-m
	}
	return dst
}

// NormFloat64 returns a standard normal draw (math/rand's ziggurat).
func (r *Rand) NormFloat64() float64 { return r.std.NormFloat64() }

// ExpFloat64 returns a rate-1 exponential draw (math/rand's ziggurat).
func (r *Rand) ExpFloat64() float64 { return r.std.ExpFloat64() }
