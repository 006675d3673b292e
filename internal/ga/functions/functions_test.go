package functions

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nscc/internal/xrand"
)

func TestTableParameters(t *testing.T) {
	want := []struct {
		no, vars, bits int
		lo, hi         float64
	}{
		{1, 3, 10, -5.12, 5.12},
		{2, 2, 12, -2.048, 2.048},
		{3, 5, 10, -5.12, 5.12},
		{4, 30, 8, -1.28, 1.28},
		{5, 2, 17, -65.536, 65.536},
		{6, 20, 10, -5.12, 5.12},
		{7, 10, 10, -500, 500},
		{8, 10, 10, -600, 600},
	}
	for _, w := range want {
		f := ByNo(w.no)
		if f.Vars != w.vars || f.BitsPerVar != w.bits || f.Lo != w.lo || f.Hi != w.hi {
			t.Errorf("F%d = vars %d bits %d [%g,%g], want vars %d bits %d [%g,%g]",
				w.no, f.Vars, f.BitsPerVar, f.Lo, f.Hi, w.vars, w.bits, w.lo, w.hi)
		}
	}
	if len(All()) != 8 {
		t.Fatalf("All() returned %d functions", len(All()))
	}
}

func TestByNoPanics(t *testing.T) {
	for _, no := range []int{0, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ByNo(%d) did not panic", no)
				}
			}()
			ByNo(no)
		}()
	}
}

// evalAt is a helper evaluating a function at an explicit point.
func evalAt(f *Function, x ...float64) float64 { return f.Eval(x, nil) }

func TestKnownOptima(t *testing.T) {
	if v := evalAt(F1, 0, 0, 0); v != 0 {
		t.Errorf("F1(0)=%v", v)
	}
	if v := evalAt(F2, 1, 1); v != 0 {
		t.Errorf("F2(1,1)=%v", v)
	}
	if v := evalAt(F3, -5.12, -5.12, -5.12, -5.12, -5.12); v != 0 {
		t.Errorf("F3(-5.12...)=%v", v)
	}
	if v := F4.Eval(make([]float64, 30), nil); v != 0 {
		t.Errorf("F4(0)=%v (noise-free)", v)
	}
	if v := evalAt(F5, -32, -32); math.Abs(v-0.998004) > 1e-4 {
		t.Errorf("F5(-32,-32)=%v, want ~0.998004", v)
	}
	if v := F6.Eval(make([]float64, 20), nil); math.Abs(v) > 1e-9 {
		t.Errorf("F6(0)=%v", v)
	}
	x7 := make([]float64, 10)
	for i := range x7 {
		x7[i] = 420.9687
	}
	if v := F7.Eval(x7, nil); math.Abs(v-(-4189.83)) > 0.1 {
		t.Errorf("F7(420.9687...)=%v, want ~-4189.83", v)
	}
	if v := F8.Eval(make([]float64, 10), nil); math.Abs(v) > 1e-9 {
		t.Errorf("F8(0)=%v", v)
	}
}

func TestOptimaAreMinima(t *testing.T) {
	// Sample random points; none may beat the known minimum (beyond F4
	// noise and small F5/F7 tolerance).
	rng := rand.New(rand.NewSource(5))
	for _, f := range All() {
		for trial := 0; trial < 300; trial++ {
			x := make([]float64, f.Vars)
			for i := range x {
				x[i] = f.Lo + rng.Float64()*(f.Hi-f.Lo)
			}
			v := f.Eval(x, nil)
			if v < f.Min-1e-6 {
				t.Errorf("F%d: random point %v beats declared minimum %v", f.No, v, f.Min)
				break
			}
		}
	}
}

func TestF4NoiseInjection(t *testing.T) {
	rng := xrand.New(1)
	x := make([]float64, 30)
	a := F4.Eval(x, rng)
	b := F4.Eval(x, rng)
	if a == b {
		t.Fatal("F4 evaluations with rng should differ (noise)")
	}
	if !F4.Noisy {
		t.Fatal("F4 must be flagged noisy")
	}
	for _, f := range All() {
		if f.No != 4 && f.Noisy {
			t.Errorf("F%d flagged noisy", f.No)
		}
	}
}

func TestDecodeEndpoints(t *testing.T) {
	f := F1
	zeros := make([]byte, f.TotalBits())
	x := f.Decode(zeros)
	for _, v := range x {
		if v != f.Lo {
			t.Fatalf("all-zero chromosome decodes to %v, want Lo=%v", v, f.Lo)
		}
	}
	ones := make([]byte, f.TotalBits())
	for i := range ones {
		ones[i] = 1
	}
	x = f.Decode(ones)
	for _, v := range x {
		if math.Abs(v-f.Hi) > 1e-12 {
			t.Fatalf("all-one chromosome decodes to %v, want Hi=%v", v, f.Hi)
		}
	}
}

func TestDecodeMonotone(t *testing.T) {
	// For a single variable, increasing the binary value increases the
	// decoded value.
	f := F2
	prev := math.Inf(-1)
	for v := 0; v < 1<<4; v++ {
		bits := make([]byte, f.TotalBits())
		for b := 0; b < 4; b++ { // low 4 bits of variable 0
			bits[f.BitsPerVar-4+b] = byte(v >> uint(3-b) & 1)
		}
		x := f.Decode(bits)
		if x[0] <= prev {
			t.Fatalf("decode not monotone at %d", v)
		}
		prev = x[0]
	}
}

func TestDecodeWrongLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Decode with wrong length did not panic")
		}
	}()
	F1.Decode(make([]byte, 7))
}

func TestEvalWrongArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Eval with wrong arity did not panic")
		}
	}()
	F1.Eval([]float64{1}, nil)
}

func TestBytes(t *testing.T) {
	if F1.TotalBits() != 30 || F1.Bytes() != 4 {
		t.Fatalf("F1 bits=%d bytes=%d", F1.TotalBits(), F1.Bytes())
	}
	if F4.TotalBits() != 240 || F4.Bytes() != 30 {
		t.Fatalf("F4 bits=%d bytes=%d", F4.TotalBits(), F4.Bytes())
	}
}

// Property: decoded values always lie within the function's limits.
func TestDecodeBoundsProperty(t *testing.T) {
	f := func(raw []byte, fnRaw uint8) bool {
		fn := ByNo(int(fnRaw%8) + 1)
		bits := make([]byte, fn.TotalBits())
		for i := range bits {
			if i < len(raw) {
				bits[i] = raw[i] & 1
			}
		}
		for _, v := range fn.Decode(bits) {
			if v < fn.Lo-1e-12 || v > fn.Hi+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGrayCodeRoundTrip(t *testing.T) {
	for v := uint64(0); v < 4096; v++ {
		if got := GrayToBinary(BinaryToGray(v)); got != v {
			t.Fatalf("round trip failed at %d: %d", v, got)
		}
	}
}

func TestGrayAdjacency(t *testing.T) {
	// Adjacent integers differ in exactly one Gray bit.
	for v := uint64(0); v < 4096; v++ {
		diff := BinaryToGray(v) ^ BinaryToGray(v+1)
		if diff == 0 || diff&(diff-1) != 0 {
			t.Fatalf("gray(%d) and gray(%d) differ in %b", v, v+1, diff)
		}
	}
}

func TestDecodeGrayEndpointsAndRange(t *testing.T) {
	f := F1
	zeros := make([]byte, f.TotalBits())
	for _, v := range f.DecodeGray(zeros) {
		if v != f.Lo {
			t.Fatalf("all-zero gray chromosome decodes to %v, want Lo", v)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		bits := make([]byte, f.TotalBits())
		for i := range bits {
			bits[i] = byte(rng.Intn(2))
		}
		for _, v := range f.DecodeGray(bits) {
			if v < f.Lo-1e-12 || v > f.Hi+1e-12 {
				t.Fatalf("gray decode out of range: %v", v)
			}
		}
	}
}

func TestGrayVsBinaryDiffer(t *testing.T) {
	bits := make([]byte, F1.TotalBits())
	bits[1] = 1 // second-most-significant bit of variable 0
	b := F1.Decode(bits)[0]
	g := F1.DecodeGray(bits)[0]
	if b == g {
		t.Fatal("gray and binary decodings should differ for this pattern")
	}
	if F1.EvalBitsGray(bits, nil) != F1.Eval(F1.DecodeGray(bits), nil) {
		t.Fatal("EvalBitsGray inconsistent with DecodeGray")
	}
}

// TestTermTablesMatchFormula checks every entry of the F6 and F7 term
// tables against the formula's term at that code's decoded value, bit
// for bit, decoding through DecodeInto as the GA does.
func TestTermTablesMatchFormula(t *testing.T) {
	for _, c := range []struct {
		f    *Function
		term func(float64) float64
	}{{F6, rastrigin}, {F7, schwefel}} {
		if len(c.f.terms) != 1<<c.f.BitsPerVar {
			t.Fatalf("F%d: %d table entries, want %d", c.f.No, len(c.f.terms), 1<<c.f.BitsPerVar)
		}
		bits := make([]byte, c.f.TotalBits())
		x := make([]float64, c.f.Vars)
		for code := range c.f.terms {
			for b := 0; b < c.f.BitsPerVar; b++ {
				bits[b] = byte(code >> (c.f.BitsPerVar - 1 - b) & 1)
			}
			c.f.DecodeInto(x, bits, false)
			if got, want := c.f.terms[code], c.term(x[0]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("F%d code %d: table %v, term(%v) = %v", c.f.No, code, got, x[0], want)
			}
		}
	}
}

// TestEvalBitsIntoMatchesFormula holds every function's chromosome
// evaluation to its formula, bit for bit: EvalBitsInto must equal
// DecodeInto followed by Eval on 100,000 random chromosomes per
// function and encoding. For F4 the two paths draw their noise from
// twin generators, which must agree on the next draw afterwards.
func TestEvalBitsIntoMatchesFormula(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 5_000
	}
	rng := rand.New(rand.NewSource(17))
	for _, f := range All() {
		bits := make([]byte, f.TotalBits())
		x, scratch := make([]float64, f.Vars), make([]float64, f.Vars)
		for _, gray := range []bool{false, true} {
			ga, gb := xrand.New(int64(f.No)), xrand.New(int64(f.No))
			for trial := 0; trial < n; trial++ {
				var w uint64
				for i := range bits {
					if i%64 == 0 {
						w = rng.Uint64()
					}
					bits[i] = byte(w & 1)
					w >>= 1
				}
				got := f.EvalBitsInto(scratch, bits, gray, ga)
				f.DecodeInto(x, bits, gray)
				want := f.Eval(x, gb)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("F%d gray=%v: EvalBitsInto %v, DecodeInto+Eval %v at %v", f.No, gray, got, want, x)
				}
			}
			if a, b := ga.Uint64(), gb.Uint64(); a != b {
				t.Fatalf("F%d gray=%v: generators diverged after evaluation (%d vs %d)", f.No, gray, a, b)
			}
		}
	}
}

// TestEvalBitsIntoScratchPanics keeps the scratch-length contract on
// the table path too.
func TestEvalBitsIntoScratchPanics(t *testing.T) {
	for _, f := range All() {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("F%d: EvalBitsInto with short scratch did not panic", f.No)
				}
			}()
			f.EvalBitsInto(make([]float64, f.Vars-1), make([]byte, f.TotalBits()), false, nil)
		}()
	}
}
