//go:build race

package exper

// raceEnabled reports that the tests run under the race detector,
// where the slowest fixtures keep one run of their pinned pair.
const raceEnabled = true
