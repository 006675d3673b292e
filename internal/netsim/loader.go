package netsim

import "nscc/internal/sim"

// loaderMsgSize is the payload size of each loader message, in bytes.
const loaderMsgSize = 1024

// Loader reproduces the paper's network-loader program (§4.3, §5.2): a
// pair of extra nodes that exchange traffic at a configured offered rate
// to congest the shared medium while the benchmarks run.
type Loader struct {
	net     Fabric
	src     int
	sink    int
	rateBps float64
	sent    int64
}

// StartLoader attaches a source and a sink node to the network and
// begins injecting 1024-byte messages at rateBps (payload bits per
// second) with ±10 % jitter until the run ends. A rate of 0 attaches
// the nodes but injects nothing.
func StartLoader(net Fabric, rateBps float64) *Loader {
	l := &Loader{net: net, rateBps: rateBps}
	l.sink = net.Attach("loader-sink", func(int, interface{}, sim.Time) {})
	l.src = net.Attach("loader-src", nil)
	if rateBps > 0 {
		net.Engine().Spawn("loader", l.run)
	}
	return l
}

func (l *Loader) run(p *sim.Proc) {
	interval := sim.DurationOf(float64(loaderMsgSize) * 8 / l.rateBps)
	for {
		l.net.Unicast(l.src, l.sink, loaderMsgSize, nil, nil)
		l.sent++
		jitter := 0.9 + 0.2*p.Rng().Float64()
		p.Sleep(sim.DurationOf(interval.Seconds() * jitter))
	}
}

// Sent reports the number of messages injected so far.
func (l *Loader) Sent() int64 { return l.sent }
