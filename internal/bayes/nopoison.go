//go:build !nscc_poison

package bayes

// poisonReleased is off outside the test-only nscc_poison build (see
// poison.go).
const poisonReleased = false
