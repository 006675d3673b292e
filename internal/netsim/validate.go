package netsim

import (
	"fmt"
	"math"

	"nscc/internal/sim"
)

// The ranges a fabric config's numbers must lie in. They keep every
// frame's schedule far inside the engine's int64-nanosecond clock (about
// 292 years): at the slowest rate and the largest overhead a frame
// occupies its link for days, and a delay is at most an hour.
const (
	minBandwidthBps  = 1 // bit/s
	maxDelay         = 3600 * sim.Second
	maxFrameOverhead = 1 << 16 // bytes
	maxBackoff       = 16      // transmission times
)

func checkRate(what string, bps float64) error {
	if !(bps >= minBandwidthBps) || math.IsInf(bps, 1) {
		return fmt.Errorf("netsim: %s %v bit/s is not a finite rate of at least %d bit/s", what, bps, minBandwidthBps)
	}
	return nil
}

func checkDelay(what string, d sim.Duration) error {
	if d < 0 || d > maxDelay {
		return fmt.Errorf("netsim: %s %v is outside [0, %v]", what, d, maxDelay)
	}
	return nil
}

func checkOverhead(n int) error {
	if n < 0 || n > maxFrameOverhead {
		return fmt.Errorf("netsim: frame overhead %d bytes is outside [0, %d]", n, maxFrameOverhead)
	}
	return nil
}

// Validate reports the first number of c outside the range the bus can
// simulate: a bandwidth below 1 bit/s or not finite, a propagation
// delay outside [0, 1h], a frame overhead outside [0, 64 KiB], a
// contention backoff outside [0, 16] or a loss probability outside
// [0, 1]. NaN is outside every range.
func (c Config) Validate() error {
	if err := checkRate("bandwidth", c.BandwidthBps); err != nil {
		return err
	}
	if err := checkDelay("propagation delay", c.PropDelay); err != nil {
		return err
	}
	if err := checkOverhead(c.FrameOverhead); err != nil {
		return err
	}
	if !(c.ContentionBackoff >= 0 && c.ContentionBackoff <= maxBackoff) {
		return fmt.Errorf("netsim: contention backoff %v is outside [0, %d]", c.ContentionBackoff, maxBackoff)
	}
	if !(c.LossProb >= 0 && c.LossProb <= 1) {
		return fmt.Errorf("netsim: loss probability %v is outside [0, 1]", c.LossProb)
	}
	return nil
}

// Validate reports the first number of c outside the range the switch
// can simulate, under the bus's limits for the same quantities.
func (c SwitchConfig) Validate() error {
	if err := checkRate("switch link bandwidth", c.LinkBandwidthBps); err != nil {
		return err
	}
	if err := checkDelay("switch latency", c.Latency); err != nil {
		return err
	}
	return checkOverhead(c.FrameOverhead)
}

// Validate reports the first number of c outside the range the
// rack/spine fabric can simulate: a rack size below 1, a rack bus that
// fails Config.Validate, or an uplink rate or spine latency outside the
// bus's limits for the same quantities.
func (c HierConfig) Validate() error {
	if c.RackSize < 1 {
		return fmt.Errorf("netsim: hier rack size %d is below 1", c.RackSize)
	}
	if err := c.Bus.Validate(); err != nil {
		return err
	}
	if err := checkRate("hier uplink bandwidth", c.UplinkBandwidthBps); err != nil {
		return err
	}
	return checkDelay("hier spine latency", c.SpineLatency)
}
