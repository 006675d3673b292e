//go:build nscc_poison

package bayes

// poisonReleased makes an interface bundle's last release overwrite its
// rows with -1, and a partition that observes a released bundle panic.
// It is on only in the test-only nscc_poison build.
const poisonReleased = true
