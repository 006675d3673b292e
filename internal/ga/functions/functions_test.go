package functions

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// setBits returns the chromosome whose bits (one byte per bit, 0 or 1,
// bit 0 first) are bits, laid out as the package doc states: bit i is
// bit 63-i%64 of word i/64.
func setBits(bits []byte) Chrom {
	var c Chrom
	for i, b := range bits {
		c[i/64] |= uint64(b&1) << (63 - uint(i)%64)
	}
	return c
}

// bitsOf is setBits' inverse: the first n bits of c, one byte each.
func bitsOf(c *Chrom, n int) []byte {
	bits := make([]byte, n)
	for i := range bits {
		bits[i] = byte(c[i/64] >> (63 - uint(i)%64) & 1)
	}
	return bits
}

// refCode is the byte-per-bit decoder's code: one variable's bits, one
// byte each, read most-significant-first, eight at a time by a
// carry-free multiply, Gray-decoded if gray is set.
func refCode(seg []byte, gray bool) uint64 {
	var v uint64
	for ; len(seg) >= 8; seg = seg[8:] {
		v = v<<8 | binary.BigEndian.Uint64(seg)*0x0102040810204080>>56
	}
	for _, bit := range seg {
		v = v<<1 | uint64(bit)
	}
	if gray {
		v = GrayToBinary(v)
	}
	return v
}

// refDecode is the byte-per-bit decoder the packed one replaced: each
// variable's bytes through refCode, scaled onto [Lo, Hi].
func refDecode(f *Function, bits []byte, gray bool) []float64 {
	if len(bits) != f.TotalBits() {
		panic(fmt.Sprintf("functions: F%d wants %d bits, got %d", f.No, f.TotalBits(), len(bits)))
	}
	x := make([]float64, f.Vars)
	maxv, bpv := float64(uint64(1)<<uint(f.BitsPerVar)-1), f.BitsPerVar
	for i := range x {
		x[i] = f.Lo + float64(refCode(bits[i*bpv:(i+1)*bpv], gray))*(f.Hi-f.Lo)/maxv
	}
	return x
}

// decode is DecodeInto into a fresh slice.
func decode(f *Function, c Chrom, gray bool) []float64 {
	x := make([]float64, f.Vars)
	f.DecodeInto(x, &c, gray)
	return x
}

// straddlers lists f's variables whose field spans two words.
func straddlers(f *Function) []int {
	var vs []int
	for v := 0; v < f.Vars; v++ {
		first, last := v*f.BitsPerVar, (v+1)*f.BitsPerVar-1
		if first/64 != last/64 {
			vs = append(vs, v)
		}
	}
	return vs
}

// TestStraddlers pins the variables whose field straddles two words,
// which the decode tests below must reach: the 10-bit variable at bits
// 60-69 of F6, F7 and F8, and F6's at 120-129 and 190-199 (its
// variable at 180-189 lies inside word 2). F4's 8-bit fields tile the
// words exactly.
func TestStraddlers(t *testing.T) {
	want := map[int][]int{1: nil, 2: nil, 3: nil, 4: nil, 5: nil, 6: {6, 12, 19}, 7: {6}, 8: {6}}
	for _, f := range All() {
		if got := straddlers(f); !slices.Equal(got, want[f.No]) {
			t.Errorf("F%d: variables %v straddle two words, want %v", f.No, got, want[f.No])
		}
	}
}

// TestTableFitsCapacity pins that every Table 1 chromosome fits one
// Chrom, and that F4's 240 bits are the widest.
func TestTableFitsCapacity(t *testing.T) {
	widest := 0
	for _, f := range All() {
		if f.TotalBits() > MaxBits {
			t.Errorf("F%d has %d bits, above the %d-bit capacity", f.No, f.TotalBits(), MaxBits)
		}
		widest = max(widest, f.TotalBits())
	}
	if widest != F4.TotalBits() || widest != 240 {
		t.Errorf("widest chromosome %d bits, want F4's 240", widest)
	}
	if MaxBits != 64*len(Chrom{}) {
		t.Errorf("MaxBits %d, but a Chrom holds %d bits", MaxBits, 64*len(Chrom{}))
	}
}

// TestChromLayout holds SetBit, Flip and SwapTail to the layout the
// package doc states, checked bit by bit: SetBit(i, b) writes and
// Flip(i) inverts exactly bit 63-i%64 of word i/64, and SwapTail(from)
// exchanges exactly bits from on, at every point of a full chromosome.
func TestChromLayout(t *testing.T) {
	for i := 0; i < MaxBits; i++ {
		var c Chrom
		c.Flip(i)
		want := make([]byte, MaxBits)
		want[i] = 1
		if got := bitsOf(&c, MaxBits); !slices.Equal(got, want) {
			t.Fatalf("Flip(%d) set bits %v", i, got)
		}
		if c[i/64] != 1<<(63-i%64) {
			t.Fatalf("Flip(%d) made word %d %#x", i, i/64, c[i/64])
		}
		c.Flip(i)
		if c != (Chrom{}) {
			t.Fatalf("Flip(%d) twice left %x", i, c)
		}
		full := Chrom{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
		for _, b := range []uint{1, 0, 0, 1} {
			c.SetBit(i, b)
			full.SetBit(i, b)
			want[i] = byte(b)
			if got := bitsOf(&c, MaxBits); !slices.Equal(got, want) {
				t.Fatalf("SetBit(%d, %d) on zeros made bits %v", i, b, got)
			}
			for j, bit := range bitsOf(&full, MaxBits) {
				if j != i && bit != 1 || j == i && uint(bit) != b {
					t.Fatalf("SetBit(%d, %d) on ones made bit %d %d", i, b, j, bit)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(9))
	for from := 0; from < MaxBits; from++ {
		a, b := make([]byte, MaxBits), make([]byte, MaxBits)
		for i := range a {
			a[i], b[i] = byte(rng.Intn(2)), byte(rng.Intn(2))
		}
		ca, cb := setBits(a), setBits(b)
		ca.SwapTail(&cb, from)
		for i := from; i < MaxBits; i++ {
			a[i], b[i] = b[i], a[i]
		}
		if !slices.Equal(bitsOf(&ca, MaxBits), a) || !slices.Equal(bitsOf(&cb, MaxBits), b) {
			t.Fatalf("SwapTail(%d) is not a swap of bits %d on", from, from)
		}
	}
}

func TestDecodeEndpoints(t *testing.T) {
	f := F1
	for _, v := range decode(f, Chrom{}, false) {
		if v != f.Lo {
			t.Fatalf("all-zero chromosome decodes to %v, want Lo=%v", v, f.Lo)
		}
	}
	ones := make([]byte, f.TotalBits())
	for i := range ones {
		ones[i] = 1
	}
	for _, v := range decode(f, setBits(ones), false) {
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
		x := decode(f, setBits(bits), false)
		if x[0] <= prev {
			t.Fatalf("decode not monotone at %d", v)
		}
		prev = x[0]
	}
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
		for _, v := range decode(fn, setBits(bits), false) {
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
	for _, v := range decode(f, Chrom{}, true) {
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
		for _, v := range decode(f, setBits(bits), true) {
			if v < f.Lo-1e-12 || v > f.Hi+1e-12 {
				t.Fatalf("gray decode out of range: %v", v)
			}
		}
	}
}

func TestGrayVsBinaryDiffer(t *testing.T) {
	bits := make([]byte, F1.TotalBits())
	bits[1] = 1 // second-most-significant bit of variable 0
	c := setBits(bits)
	b := decode(F1, c, false)[0]
	g := decode(F1, c, true)[0]
	if b == g {
		t.Fatal("gray and binary decodings should differ for this pattern")
	}
	if F1.EvalBitsInto(make([]float64, F1.Vars), &c, true, nil) != F1.Eval(decode(F1, c, true), nil) {
		t.Fatal("EvalBitsInto with gray set is inconsistent with the Gray decoding")
	}
}

// TestTermTablesMatchFormula checks every entry of the F6 and F7 term
// tables against the formula's term at that code's decoded value, bit
// for bit. Each code is planted at every variable of a packed
// chromosome, the word-straddling ones included, and decoded through
// DecodeInto as the GA does; the byte-per-bit decoder must read the
// same value there.
func TestTermTablesMatchFormula(t *testing.T) {
	for _, c := range []struct {
		f    *Function
		term func(float64) float64
	}{{F6, rastrigin}, {F7, schwefel}} {
		f := c.f
		if len(f.terms) != 1<<f.BitsPerVar {
			t.Fatalf("F%d: %d table entries, want %d", f.No, len(f.terms), 1<<f.BitsPerVar)
		}
		x := make([]float64, f.Vars)
		for code := range f.terms {
			for v := 0; v < f.Vars; v++ {
				bits := make([]byte, f.TotalBits())
				for b := 0; b < f.BitsPerVar; b++ {
					bits[v*f.BitsPerVar+b] = byte(code >> (f.BitsPerVar - 1 - b) & 1)
				}
				chrom := setBits(bits)
				f.DecodeInto(x, &chrom, false)
				if ref := refDecode(f, bits, false); !slices.Equal(x, ref) {
					t.Fatalf("F%d code %d at variable %d: DecodeInto %v, byte decoder %v", f.No, code, v, x, ref)
				}
				if got, want := f.terms[code], c.term(x[v]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("F%d code %d: table %v, term(%v) = %v", f.No, code, got, x[v], want)
				}
			}
		}
	}
}

// TestEvalBitsIntoMatchesFormula holds every function's chromosome
// evaluation to its formula, bit for bit: on 100,000 random packed
// chromosomes per function and encoding, EvalBitsInto must equal Eval
// at the byte-per-bit decoder's values of the same bits, and
// DecodeInto must equal those values. Every code planted at each
// word-straddling variable is checked the same way. For F4 the two
// paths draw their noise from twin generators, which must agree on the
// next draw afterwards.
func TestEvalBitsIntoMatchesFormula(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 5_000
	}
	rng := rand.New(rand.NewSource(17))
	for _, f := range All() {
		x, scratch := make([]float64, f.Vars), make([]float64, f.Vars)
		for _, gray := range []bool{false, true} {
			ga, gb := xrand.New(int64(f.No)), xrand.New(int64(f.No))
			check := func(c Chrom) {
				bits := bitsOf(&c, f.TotalBits())
				ref := refDecode(f, bits, gray)
				got := f.EvalBitsInto(scratch, &c, gray, ga)
				want := f.Eval(ref, gb)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("F%d gray=%v: EvalBitsInto %v, formula %v at %v", f.No, gray, got, want, ref)
				}
				if f.DecodeInto(x, &c, gray); !slices.Equal(x, ref) {
					t.Fatalf("F%d gray=%v: DecodeInto %v, byte decoder %v", f.No, gray, x, ref)
				}
			}
			for trial := 0; trial < n; trial++ {
				var c Chrom
				for w := range c {
					c[w] = rng.Uint64()
				}
				// Bits past the chromosome stay zero, as in a deme.
				tail := make([]byte, MaxBits-f.TotalBits())
				c.SwapTail(&Chrom{}, f.TotalBits())
				if got := bitsOf(&c, MaxBits)[f.TotalBits():]; !slices.Equal(got, tail) {
					t.Fatal("clearing the tail left bits set")
				}
				check(c)
			}
			for _, v := range straddlers(f) {
				for code := uint64(0); code < 1<<f.BitsPerVar; code++ {
					c := Chrom{}
					for b := 0; b < f.BitsPerVar; b++ {
						if code>>(f.BitsPerVar-1-b)&1 == 1 {
							c.Flip(v*f.BitsPerVar + b)
						}
					}
					check(c)
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
			f.EvalBitsInto(make([]float64, f.Vars-1), &Chrom{}, false, nil)
		}()
	}
}
