//go:build nscc_poison

package graph

// poisonReleased makes a state block's last release overwrite its
// values with NaN, and a recycled convergence report name partition -1.
// It is on only in the test-only nscc_poison build.
const poisonReleased = true
