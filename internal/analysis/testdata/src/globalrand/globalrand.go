// Package globalrand is the golden fixture of the globalrand analyzer.
package globalrand

import (
	"math/rand"

	"nscc/internal/xrand"
)

// bad draws from the process-global source and seeds from constants.
func bad(seed int64) {
	_ = rand.Int()                              // want `rand\.Int draws from the process-global source`
	_ = rand.Intn(10)                           // want `rand\.Intn draws from the process-global source`
	_ = rand.Float64()                          // want `rand\.Float64 draws from the process-global source`
	_ = rand.Perm(8)                            // want `rand\.Perm draws from the process-global source`
	rand.Shuffle(4, func(i, j int) {})          // want `rand\.Shuffle draws from the process-global source`
	rand.Seed(99)                               // want `rand\.Seed draws from the process-global source`
	_ = rand.NewSource(42)                      // want `rand\.NewSource with constant seed 42`
	_ = rand.New(rand.NewSource(1234))          // want `rand\.NewSource with constant seed 1234`
	const fixed = int64(7)
	_ = rand.NewSource(fixed) // want `rand\.NewSource with constant seed 7`
	_ = xrand.New(42)         // want `xrand\.New with constant seed 42`
	_ = xrand.New(fixed + 1)  // want `xrand\.New with constant seed 8`
}

// good derives every stream from a run seed: explicit sources with
// non-constant seeds, and draws only through their methods.
func good(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	derived := rand.New(rand.NewSource(seed ^ 0x9a27))
	_ = derived.Intn(10)
	_ = xrand.New(seed ^ 0x5eed).Intn(10)
	return rng.Float64()
}

// allowed demonstrates directive suppression.
func allowed() int {
	return rand.Int() //nscc:globalrand -- demo code, determinism not required
}
