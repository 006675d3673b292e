// Package sim provides a deterministic discrete-event simulation engine
// with cooperative processes. It is the substrate on which the repository
// emulates an IBM SP2-class multicomputer: each simulated node is a
// process (an iter.Pull coroutine that runs only while it holds
// control), and all inter-process interaction is mediated by events on a
// single virtual clock. Exactly one stack holds control at any instant —
// Run's caller or one process — and it runs the event loop itself: a
// parking process fires the callbacks due and carries on when the next
// process step is its own, or yields to Run's resume loop, which resumes
// the process it names. A handoff is two coroutine switches and never
// enters the Go scheduler. So the package needs no locks and every run
// is reproducible given the same seed and parameters.
package sim

import "fmt"

// Time is an absolute instant of virtual time, in nanoseconds from the
// start of the simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds. It mirrors
// time.Duration but is a distinct type so real and virtual time cannot be
// mixed accidentally.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Forever is a sentinel for "no deadline".
const Forever Time = 1<<63 - 1

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds reports the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

func (t Time) String() string     { return fmt.Sprintf("%.6fs", t.Seconds()) }
func (d Duration) String() string { return fmt.Sprintf("%.6fs", d.Seconds()) }

// DurationOf converts seconds to a Duration, rounding to the nearest
// nanosecond.
func DurationOf(seconds float64) Duration {
	return Duration(seconds*float64(Second) + 0.5)
}
