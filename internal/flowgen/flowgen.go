// Package flowgen provides the traffic generators that stand in for the
// paper's measurement tools: raw_ethernet_bw (constant-rate senders at a
// configurable data rate, also the n:1 incast senders of §2.1), NetPIPE
// (ping-pong latency probes), and Zipf flow workloads for the lookup and
// telemetry use cases.
package flowgen

import (
	"math/rand"

	"gem/internal/netsim"
	"gem/internal/sim"
	"gem/internal/wire"
)

// CBR is a constant-bit-rate sender: frameLen-byte frames paced so the wire
// rate (including framing overhead) equals RateBps, like raw_ethernet_bw.
type CBR struct {
	Src      *netsim.Host
	Port     *netsim.Port
	Dst      *netsim.Host
	FrameLen int
	RateBps  float64
	// FlowCount spreads traffic over this many UDP source ports (1 = a
	// single flow).
	FlowCount int
	// DSCP, when nonzero, stamps every frame's IPv4 DSCP field (DSCP >= 32,
	// e.g. 46/EF, classifies as high priority in the switch pipeline).
	DSCP uint8
	// Sent counts frames handed to the port.
	Sent int64
	// SendFails counts frames the port's FIFO refused.
	SendFails int64

	rng  *rand.Rand
	stop bool
}

// Start begins transmission on engine, running until Stop or until count
// frames have been sent (count <= 0 means unbounded).
func (c *CBR) Start(engine *sim.Engine, count int64) {
	if c.FlowCount <= 0 {
		c.FlowCount = 1
	}
	c.rng = rand.New(rand.NewSource(int64(c.Src.MAC.Uint64())))
	interval := sim.Duration(float64(c.FrameLen+wire.EthernetFramingOverhead) * 8 / c.RateBps * 1e9)
	if interval < 1 {
		interval = 1
	}
	var send func()
	send = func() {
		if c.stop || (count > 0 && c.Sent >= count) {
			return
		}
		srcPort := uint16(1000 + c.rng.Intn(c.FlowCount))
		f := wire.BuildDataFrameInto(wire.DefaultPool, c.Src.MAC, c.Dst.MAC, c.Src.IP, c.Dst.IP,
			srcPort, 9999, c.FrameLen, nil)
		if c.DSCP != 0 {
			wire.SetDSCP(f, c.DSCP)
		}
		if c.Port.Send(f) {
			c.Sent++
		} else {
			c.SendFails++
		}
		engine.Schedule(interval, send)
	}
	engine.Schedule(0, send)
}

// Stop halts the generator after the current frame.
func (c *CBR) Stop() { c.stop = true }

// PingPong measures round-trip latency like NetPIPE: a sends a frame to b,
// b's handler echoes it back, a records the RTT and sends the next probe.
// Handlers on both hosts are replaced.
type PingPong struct {
	Engine   *sim.Engine
	A, B     *netsim.Host
	APort    *netsim.Port
	BPort    *netsim.Port
	FrameLen int

	// RTTs holds one sample per completed round trip.
	RTTs []sim.Duration

	sentAt sim.Time
	left   int
	done   func()
}

// Run issues rounds probes and calls done (optional) when finished.
func (p *PingPong) Run(rounds int, done func()) {
	p.left = rounds
	p.done = done
	p.B.Handler = func(_ *netsim.Port, frame []byte) {
		// Echo: swap addressing and bounce back.
		echo := wire.BuildDataFrameInto(wire.DefaultPool, p.B.MAC, p.A.MAC, p.B.IP, p.A.IP,
			2001, 9999, p.FrameLen, nil)
		p.BPort.Send(echo)
	}
	p.A.Handler = func(_ *netsim.Port, frame []byte) {
		p.RTTs = append(p.RTTs, p.Engine.Now().Sub(p.sentAt))
		p.left--
		if p.left > 0 {
			p.probe()
		} else if p.done != nil {
			p.done()
		}
	}
	p.probe()
}

func (p *PingPong) probe() {
	p.sentAt = p.Engine.Now()
	f := wire.BuildDataFrameInto(wire.DefaultPool, p.A.MAC, p.B.MAC, p.A.IP, p.B.IP, 2000, 9999, p.FrameLen, nil)
	p.APort.Send(f)
}

// MedianOneWay returns half the median RTT — the end-to-end latency figure
// the paper plots in Figure 3a.
func (p *PingPong) MedianOneWay() sim.Duration {
	if len(p.RTTs) == 0 {
		return 0
	}
	sorted := append([]sim.Duration(nil), p.RTTs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2] / 2
}

// Zipf generates flow identifiers with a Zipfian popularity distribution —
// the skew of real data-center traffic that makes caching effective (§2.2).
type Zipf struct {
	z *rand.Zipf
}

// NewZipf returns a generator over n flows with skew s (s > 1; typical
// data-center skew ≈ 1.05–1.3).
func NewZipf(seed int64, n int, s float64) *Zipf {
	if s <= 1 {
		s = 1.01
	}
	r := rand.New(rand.NewSource(seed))
	return &Zipf{z: rand.NewZipf(r, s, 1, uint64(n-1))}
}

// Next returns the next flow id in [0, n).
func (z *Zipf) Next() int { return int(z.z.Uint64()) }

// FlowID materializes flow i as a (srcPort, dstPort) pair. Distinct ids
// below 65535² map to distinct, nonzero port pairs.
func FlowID(i int) (srcPort, dstPort uint16) {
	return uint16(i%65535) + 1, uint16(i/65535%65535) + 1
}
