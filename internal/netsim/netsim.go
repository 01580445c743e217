// Package netsim models the physical network: devices, ports, and
// full-duplex point-to-point links with finite bandwidth, serialization
// delay, propagation delay, and Ethernet framing overhead.
//
// Devices (hosts, RNICs, switches) implement the Device interface and are
// wired together with Net.Connect. All frames are real encoded bytes
// produced by internal/wire; netsim only moves them and accounts for time.
package netsim

import (
	"fmt"
	"math/rand"

	"gem/internal/fifo"
	"gem/internal/sim"
	"gem/internal/stats"
	"gem/internal/wire"
)

// Device is anything that terminates links.
type Device interface {
	// Name identifies the device in diagnostics.
	Name() string
	// Receive delivers one frame arriving on port. The frame buffer is
	// owned by the receiver from this point on.
	Receive(port *Port, frame []byte)
}

// LinkConfig describes one direction of a link. Links are symmetric; the
// same configuration applies both ways.
type LinkConfig struct {
	// RateBps is the line rate in bits per second (e.g. 40e9).
	RateBps float64
	// Propagation is the one-way signal propagation delay.
	Propagation sim.Duration
	// TxQueueFrames bounds the transmit FIFO of each endpoint; frames
	// arriving at a full FIFO are dropped and counted. Zero means a
	// generous default (4096).
	TxQueueFrames int
	// LossRate drops each frame with this probability on arrival,
	// modelling corruption/congestion loss for the reliability
	// experiments. Zero means a lossless link.
	LossRate float64
}

// DefaultTxQueue is the transmit FIFO depth used when LinkConfig leaves
// TxQueueFrames zero.
const DefaultTxQueue = 4096

// FaultInjector intercepts frames on one direction of a link, at the moment
// serialization completes (the same point the built-in LossRate applies).
// Implementations may drop a frame, delay its delivery beyond the configured
// propagation, or mutate its bytes in place (bit corruption — the receiver's
// ICRC/decode path then rejects it). The injector never takes ownership of
// the frame buffer: a dropped frame is recycled by the port.
//
// rng is the port's private seeded substream (derived from the run seed and
// the port name), so an injector that draws from it keeps the run
// byte-identically reproducible. See internal/faults for the standard models.
type FaultInjector interface {
	Transmit(now sim.Time, rng *rand.Rand, frame []byte) (drop bool, extraDelay sim.Duration)
}

// Link40G returns the testbed's standard link: 40 Gbps, 250 ns propagation
// (a few meters of fiber plus PHY latency inside one rack).
func Link40G() LinkConfig {
	return LinkConfig{RateBps: 40e9, Propagation: 250 * sim.Nanosecond}
}

// Port is one endpoint of a link, bound to a device.
type Port struct {
	dev   Device
	index int
	peer  *Port
	net   *Net
	cfg   LinkConfig

	busy    bool
	txQueue fifo.Queue[[]byte]
	faults  FaultInjector

	// rng is the port's private random substream, created on first draw.
	rng *rand.Rand

	// TxMeter and RxMeter count wire bytes including framing overhead.
	TxMeter stats.Meter
	RxMeter stats.Meter
	// TxDrops counts frames dropped at a full transmit FIFO; LossDrops
	// counts frames lost to the link's configured LossRate; FaultDrops
	// counts frames dropped by an installed FaultInjector.
	TxDrops    int64
	LossDrops  int64
	FaultDrops int64

	peakQueued int
}

// SetFaultInjector installs (or, with nil, removes) a fault injector on this
// port's transmit direction. Each direction of a link is injected
// independently; install on both ports for a symmetric fault model.
func (p *Port) SetFaultInjector(f FaultInjector) { p.faults = f }

// Device returns the device that owns the port.
func (p *Port) Device() Device { return p.dev }

// Index returns the port's index on its device (assigned at Connect time,
// in connection order per device).
func (p *Port) Index() int { return p.index }

// Peer returns the port at the other end of the link.
func (p *Port) Peer() *Port { return p.peer }

// QueuedFrames reports the current transmit FIFO occupancy.
func (p *Port) QueuedFrames() int { return p.txQueue.Len() }

// PeakQueuedFrames reports the highest transmit FIFO occupancy observed —
// the overload experiments use it to show credit windows keep device queues
// bounded.
func (p *Port) PeakQueuedFrames() int { return p.peakQueued }

// RateBps returns the link's line rate in bits per second.
func (p *Port) RateBps() float64 { return p.cfg.RateBps }

func (p *Port) String() string {
	return fmt.Sprintf("%s[%d]", p.dev.Name(), p.index)
}

// rand returns the port's private random substream. All loss and fault draws
// on the transmit direction come from here, keyed by the port name, so the
// draw sequence depends only on this port's own traffic order.
func (p *Port) rand() *rand.Rand {
	if p.rng == nil {
		p.rng = p.net.Engine.Stream("fab:" + p.String())
	}
	return p.rng
}

// Send queues frame for transmission toward the peer. It returns false if
// the transmit FIFO is full and the frame was dropped. Ownership of the
// frame buffer transfers to the port either way: a dropped frame is
// recycled into wire.DefaultPool, so callers must not retain it.
func (p *Port) Send(frame []byte) bool {
	if p.peer == nil {
		panic(fmt.Sprintf("netsim: send on unconnected port %s", p))
	}
	limit := p.cfg.TxQueueFrames
	if limit == 0 {
		limit = DefaultTxQueue
	}
	if p.busy {
		if p.txQueue.Len() >= limit {
			p.TxDrops++
			wire.DefaultPool.Put(frame)
			return false
		}
		p.txQueue.Push(frame)
		if n := p.txQueue.Len(); n > p.peakQueued {
			p.peakQueued = n
		}
		return true
	}
	p.transmit(frame)
	return true
}

// SerializationDelay returns the time the line is occupied by one frame of
// frameLen bytes, including Ethernet framing overhead.
func (p *Port) SerializationDelay(frameLen int) sim.Duration {
	bits := float64(frameLen+wire.EthernetFramingOverhead) * 8
	return sim.Duration(bits / p.cfg.RateBps * 1e9)
}

// transmit puts frame on the wire. The frame rides in two payload events —
// fully serialized after txTime (portTxDone), delivered to the peer after
// propagation (portArrive) — and each event owns it while pending.
func (p *Port) transmit(frame []byte) {
	p.busy = true
	txTime := p.SerializationDelay(len(frame))
	p.TxMeter.Record(len(frame) + wire.EthernetFramingOverhead)
	p.net.Engine.ScheduleCall(txTime, portTxDone, p, frame, 0)
}

// portTxDone fires on the sending port when frame has left the line: the
// loss and fault models apply here, then the next queued frame starts.
func portTxDone(recv any, frame []byte, _ int) {
	p := recv.(*Port)
	eng := p.net.Engine
	drop := false
	var extra sim.Duration
	if p.faults != nil {
		drop, extra = p.faults.Transmit(eng.Now(), p.rand(), frame)
		if drop {
			p.FaultDrops++
		}
	}
	if !drop && p.cfg.LossRate > 0 && p.rand().Float64() < p.cfg.LossRate {
		p.LossDrops++
		drop = true
	}
	if drop {
		wire.DefaultPool.Put(frame)
	} else {
		eng.ScheduleCall(p.cfg.Propagation+extra, portArrive, p.peer, frame, 0)
	}
	if p.txQueue.Len() > 0 {
		p.transmit(p.txQueue.Pop())
	} else {
		p.busy = false
	}
}

// portArrive fires on the receiving port: ownership passes to its device.
func portArrive(recv any, frame []byte, _ int) {
	p := recv.(*Port)
	p.RxMeter.Record(len(frame) + wire.EthernetFramingOverhead)
	p.dev.Receive(p, frame)
}

// Net owns the engine and the wiring of a testbed.
type Net struct {
	Engine *sim.Engine
	ports  map[Device][]*Port
}

// New returns an empty network on a fresh engine seeded with seed.
func New(seed int64) *Net {
	return &Net{Engine: sim.NewEngine(seed), ports: make(map[Device][]*Port)}
}

// Connect wires a and b with a full-duplex link and returns the two new
// ports (one on each device). Port indices count up per device.
func (n *Net) Connect(a, b Device, cfg LinkConfig) (*Port, *Port) {
	if cfg.RateBps <= 0 {
		panic("netsim: link rate must be positive")
	}
	pa := &Port{dev: a, index: len(n.ports[a]), net: n, cfg: cfg}
	pb := &Port{dev: b, index: len(n.ports[b]), net: n, cfg: cfg}
	pa.peer, pb.peer = pb, pa
	n.ports[a] = append(n.ports[a], pa)
	n.ports[b] = append(n.ports[b], pb)
	return pa, pb
}

// Ports returns the ports of device d in connection order.
func (n *Net) Ports(d Device) []*Port { return n.ports[d] }
