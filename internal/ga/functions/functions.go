// Package functions implements the paper's eight-function GA test bed
// (Table 1): DeJong's five classical functions [5] plus the Rastrigin,
// Schwefel and Griewank functions from the Mühlenbein–Schomisch–Born
// parallel-GA study [13]. Each function carries its bit-string encoding
// (variables are binary-encoded over their limit range, DeJong-style)
// so the GA engine and the benchmarks share one definition.
//
// The package also owns the chromosome's bit layout, and no other
// package restates it. A Chrom packs up to MaxBits bits into four
// words, most significant first: bit i is bit 63-i%64 of word i/64.
// Each variable is one big-endian field of BitsPerVar bits, which may
// straddle two words (F6's 10-bit variables 6, 12 and 19 do). SetBit
// writes one bit, Flip inverts one and SwapTail exchanges two
// chromosomes' tails, which is all initialization, mutation and
// crossover need.
//
// Each objective's formula is the reference: Eval(x) computes it, and
// EvalBitsInto must return exactly its bits for the decoded chromosome.
// F6 and F7 are sums of one term per variable, over variables that all
// share one 10-bit encoding, so package initialization tabulates the
// term at each of the 1024 codes with the same term function the
// formula calls (two 8 KB tables, about 40 µs), and EvalBitsInto adds
// table entries in the formula's order instead of calling libm per
// variable. F7's term is wrapped in an explicit float64 conversion, the
// Go spec's barrier against fusing a multiply into the following add:
// a fused multiply-add (which arm64 or GOAMD64=v3 may emit) has no
// rounded product a table could hold. On the default amd64 build Go
// fuses nothing, so the conversion changes no bit there.
package functions

import (
	"fmt"
	"math"

	"nscc/internal/xrand"
)

// Function is one entry of Table 1, with its standard encoding.
type Function struct {
	No         int    // 1-based index as in Table 1
	Name       string // conventional name
	Vars       int    // number of decision variables
	BitsPerVar int    // bits per variable in the chromosome
	Lo, Hi     float64
	Min        float64 // global minimum of the deterministic part
	Noisy      bool    // true if evaluation adds observation noise (F4)
	// OptTarget is the objective value at or below which a run counts
	// as having found the global optimum ("number of runs in which the
	// global optimum is found", §4.3). It allows for the binary
	// encoding's grid resolution, and for F4 it is the table's <= -2.5.
	OptTarget float64

	eval func(x []float64, rng *xrand.Rand) float64

	// terms, if set, makes the objective base + Σ terms[code_i] over the
	// variables' codes (after Gray decoding), in variable order: the
	// formula's term at every code of one variable, built at init.
	terms []float64
	base  float64
}

// OptimumFound reports whether a best objective value reaches the
// function's optimum target.
func (f *Function) OptimumFound(best float64) bool { return best <= f.OptTarget }

// TotalBits returns the chromosome length in bits.
func (f *Function) TotalBits() int { return f.Vars * f.BitsPerVar }

// Bytes returns the packed chromosome size in bytes (for message-size
// accounting).
func (f *Function) Bytes() int { return (f.TotalBits() + 7) / 8 }

// Eval computes the (possibly noisy) objective at x. rng supplies the
// noise source for F4 and may be nil for deterministic functions.
func (f *Function) Eval(x []float64, rng *xrand.Rand) float64 {
	if len(x) != f.Vars {
		panic(fmt.Sprintf("functions: F%d wants %d vars, got %d", f.No, f.Vars, len(x)))
	}
	return f.eval(x, rng)
}

// MaxBits is the chromosome capacity in bits: Table 1's widest
// function, F4, has 240 bits, so every chromosome fits 256.
const MaxBits = 256

// Chrom is a chromosome packed into fixed-width words: bit i is bit
// 63-i%64 of word i/64, so the chromosome reads most-significant-first
// from word 0 on, and bits at and past the function's TotalBits are
// zero. It holds no pointers, so a population of them is one
// allocation the garbage collector never scans, and copying one is a
// value copy.
type Chrom [MaxBits / 64]uint64

// Flip inverts bit i.
func (c *Chrom) Flip(i int) { c[i/64] ^= 1 << (63 - uint(i)%64) }

// SetBit sets bit i to b, which is 0 or 1, without branching on b.
func (c *Chrom) SetBit(i int, b uint) {
	sh := 63 - uint(i)%64
	c[i/64] = c[i/64]&^(1<<sh) | uint64(b&1)<<sh
}

// SwapTail exchanges bits from through MaxBits-1 of c and o: the word
// holding bit from swaps under one mask, the words after it whole.
func (c *Chrom) SwapTail(o *Chrom, from int) {
	m := ^uint64(0) >> (uint(from) % 64)
	for w := from / 64; w < len(c); w++ {
		d := (c[w] ^ o[w]) & m
		c[w] ^= d
		o[w] ^= d
		m = ^uint64(0)
	}
}

// field reads the n bits (1 <= n <= 64) from bit i on as one
// big-endian integer. It reads bit i's word and the next (word 0 after
// the last, whose bits then go unused): v holds the field in its top n
// bits, and a field inside one word leaves the next word's bits below
// them, where the final shift drops them, so a field straddling two
// words takes no branch of its own.
func (c *Chrom) field(i, n uint) uint64 {
	w, off := i/64, i%64
	v := c[w]<<off | c[(w+1)%uint(len(c))]>>(64-off)
	return v >> (64 - n)
}

// code reads the n-bit field from bit i on as a plain binary integer,
// Gray-decoded if gray is set.
func code(c *Chrom, i, n uint, gray bool) uint64 {
	v := c.field(i, n)
	if gray {
		v = GrayToBinary(v)
	}
	return v
}

// DecodeInto maps a chromosome to variable values, writing them into
// dst, which must hold f.Vars of them: each variable's field is read
// as a plain binary integer (or, if gray is set, a reflected Gray
// code, whose adjacent values differ in one bit, removing the Hamming
// cliffs of plain binary) and scaled linearly onto [Lo, Hi] (DeJong's
// encoding).
func (f *Function) DecodeInto(dst []float64, c *Chrom, gray bool) {
	_ = dst[f.Vars-1] // a short dst panics here, before any write
	maxv, bpv := f.maxCode(), uint(f.BitsPerVar)
	for i := 0; i < f.Vars; i++ {
		dst[i] = f.value(code(c, uint(i)*bpv, bpv, gray), maxv)
	}
}

// maxCode is the largest code of one variable, as a float64.
func (f *Function) maxCode() float64 { return float64(uint64(1)<<uint(f.BitsPerVar) - 1) }

// value scales a variable's code linearly onto [Lo, Hi]; maxv is
// f.maxCode().
func (f *Function) value(v uint64, maxv float64) float64 {
	return f.Lo + float64(v)*(f.Hi-f.Lo)/maxv
}

// tabulate sets f's term table: term at the value of every code of one
// variable. The formula's own term function goes in, so each entry is
// the bits the formula adds for that code.
func tabulate(f *Function, base float64, term func(float64) float64) *Function {
	maxv := f.maxCode()
	f.terms = make([]float64, 1<<f.BitsPerVar)
	for c := range f.terms {
		f.terms[c] = term(f.value(uint64(c), maxv))
	}
	f.base = base
	return f
}

// GrayToBinary converts a reflected Gray code to its binary value.
func GrayToBinary(g uint64) uint64 {
	for shift := uint(32); shift >= 1; shift >>= 1 {
		g ^= g >> shift
	}
	return g
}

// BinaryToGray converts a binary value to its reflected Gray code.
func BinaryToGray(b uint64) uint64 { return b ^ (b >> 1) }

// EvalBitsInto decodes a chromosome and evaluates the objective there,
// with caller-owned decode scratch (f.Vars values), so a tight
// evaluation loop allocates nothing. The result is exactly the
// formula's, Eval at the DecodeInto values. A function with a term
// table (F6, F7) sums table entries by code and leaves scratch
// untouched, though a short scratch panics on every function alike.
func (f *Function) EvalBitsInto(scratch []float64, c *Chrom, gray bool, rng *xrand.Rand) float64 {
	if f.terms == nil {
		f.DecodeInto(scratch, c, gray)
		return f.eval(scratch[:f.Vars], rng)
	}
	_ = scratch[f.Vars-1]
	s, bpv := f.base, uint(f.BitsPerVar)
	for i := 0; i < f.Vars; i++ {
		s += f.terms[code(c, uint(i)*bpv, bpv, gray)]
	}
	return s
}

// All returns the Table 1 test bed, F1..F8 in order.
func All() []*Function { return []*Function{F1, F2, F3, F4, F5, F6, F7, F8} }

// ByNo returns function number no (1..8).
func ByNo(no int) *Function {
	if no < 1 || no > 8 {
		panic(fmt.Sprintf("functions: no such function F%d", no))
	}
	return All()[no-1]
}

// F1 is DeJong's sphere: sum x_i^2, 3 vars in [-5.12, 5.12], min 0.
var F1 = &Function{
	No: 1, Name: "sphere", Vars: 3, BitsPerVar: 10, Lo: -5.12, Hi: 5.12, Min: 0, OptTarget: 0.01,
	eval: func(x []float64, _ *xrand.Rand) float64 {
		s := 0.0
		for _, v := range x {
			s += v * v
		}
		return s
	},
}

// F2 is Rosenbrock's saddle: 100(x1^2-x2)^2 + (1-x1)^2 in [-2.048,
// 2.048], min 0 at (1,1). (Table 1 prints the classical DeJong form.)
var F2 = &Function{
	No: 2, Name: "rosenbrock", Vars: 2, BitsPerVar: 12, Lo: -2.048, Hi: 2.048, Min: 0, OptTarget: 0.01,
	eval: func(x []float64, _ *xrand.Rand) float64 {
		a := x[0]*x[0] - x[1]
		b := 1 - x[0]
		return 100*a*a + b*b
	},
}

// F3 is DeJong's step function. Table 1 writes sum integer(x_i) with
// minimum listed as 0; we use the standard normalized form
// 30 + sum floor(x_i) (5 vars in [-5.12, 5.12]) whose minimum is exactly
// 0, matching the table's minimum column.
var F3 = &Function{
	No: 3, Name: "step", Vars: 5, BitsPerVar: 10, Lo: -5.12, Hi: 5.12, Min: 0, OptTarget: 0.49,
	eval: func(x []float64, _ *xrand.Rand) float64 {
		s := 30.0
		for _, v := range x {
			s += math.Floor(v)
		}
		return s
	},
}

// F4 is DeJong's noisy quartic: sum i*x_i^4 + Gauss(0,1), 30 vars in
// [-1.28, 1.28]. The deterministic part's minimum is 0; the table's
// "<= -2.5" reflects the noise term's best draws over a run.
var F4 = &Function{
	No: 4, Name: "quartic+noise", Vars: 30, BitsPerVar: 8, Lo: -1.28, Hi: 1.28, Min: 0, OptTarget: -2.5, Noisy: true,
	eval: func(x []float64, rng *xrand.Rand) float64 {
		s := 0.0
		for i, v := range x {
			s += float64(i+1) * v * v * v * v
		}
		if rng != nil {
			s += rng.NormFloat64()
		}
		return s
	},
}

// foxholePts are the coordinates of the 5x5 grid of Shekel wells,
// {-32,-16,0,16,32}^2.
var foxholePts = [5]float64{-32, -16, 0, 16, 32}

// F5 is Shekel's foxholes: [0.002 + sum_j 1/(j + sum_i (x_i-a_ij)^6)]^-1,
// 2 vars in [-65.536, 65.536], min ~0.998004 at (-32,-32). Well j sits
// at (foxholePts[j%5], foxholePts[j/5]), so the 50 sixth powers of a
// point take only 10 distinct operands: each is computed once and
// summed into the wells in the original order.
var F5 = &Function{
	No: 5, Name: "foxholes", Vars: 2, BitsPerVar: 17, Lo: -65.536, Hi: 65.536, Min: 0.998004, OptTarget: 1.008,
	eval: func(x []float64, _ *xrand.Rand) float64 {
		var p0, p1 [5]float64
		for k, a := range foxholePts {
			p0[k] = math.Pow(x[0]-a, 6)
			p1[k] = math.Pow(x[1]-a, 6)
		}
		sum := 0.002
		for j := 0; j < 25; j++ {
			g := float64(j+1) + p0[j%5] + p1[j/5]
			sum += 1 / g
		}
		return 1 / sum
	},
}

// rastriginA is the Rastrigin amplitude A.
const rastriginA = 10.0

// rastrigin is one variable's Rastrigin term, x^2 - A cos(2 pi x).
func rastrigin(v float64) float64 { return v*v - rastriginA*math.Cos(2*math.Pi*v) }

// F6 is the Rastrigin function: nA + sum (x_i^2 - A cos(2 pi x_i)),
// A=10, 20 vars in [-5.12, 5.12], min 0 at the origin.
var F6 = tabulate(&Function{
	No: 6, Name: "rastrigin", Vars: 20, BitsPerVar: 10, Lo: -5.12, Hi: 5.12, Min: 0, OptTarget: 0.5,
	eval: func(x []float64, _ *xrand.Rand) float64 {
		s := rastriginA * float64(len(x))
		for _, v := range x {
			s += rastrigin(v)
		}
		return s
	},
}, rastriginA*20, rastrigin) // base nA for the 20 variables

// schwefel is one variable's Schwefel term, -x sin(sqrt(|x|)). The
// float64 conversion keeps the product rounded before the caller's
// running sum adds it (see the package doc).
func schwefel(v float64) float64 { return float64(-v * math.Sin(math.Sqrt(math.Abs(v)))) }

// F7 is the Schwefel function: sum -x_i sin(sqrt(|x_i|)), 10 vars in
// [-500, 500], min ~-4189.83 at x_i ~ 420.9687.
var F7 = tabulate(&Function{
	No: 7, Name: "schwefel", Vars: 10, BitsPerVar: 10, Lo: -500, Hi: 500, Min: -4189.83, OptTarget: -4169,
	eval: func(x []float64, _ *xrand.Rand) float64 {
		s := 0.0
		for _, v := range x {
			s += schwefel(v)
		}
		return s
	},
}, 0, schwefel)

// F8 is the Griewank function: sum x_i^2/4000 - prod cos(x_i/sqrt(i)) + 1,
// 10 vars in [-600, 600], min 0 at the origin.
var F8 = &Function{
	No: 8, Name: "griewank", Vars: 10, BitsPerVar: 10, Lo: -600, Hi: 600, Min: 0, OptTarget: 0.5,
	eval: func(x []float64, _ *xrand.Rand) float64 {
		s := 0.0
		p := 1.0
		for i, v := range x {
			s += v * v / 4000
			p *= math.Cos(v / math.Sqrt(float64(i+1)))
		}
		return s - p + 1
	},
}
