// Package core implements the paper's contribution: the three remote-memory
// primitives — packet buffer, lookup table, and state store — as data-plane
// actions over an RDMA channel between a programmable switch and the RNICs
// of memory servers, plus the control-plane channel controller that sets
// them up and the §7 reliability extension.
//
// Everything here operates purely on switch data-plane facilities
// (switchsim.Context, register arrays, tables, Inject) and real RoCEv2
// frames from internal/wire: the design constraint that makes the paper's
// architecture deployable on commodity hardware.
package core

import (
	"fmt"
	"reflect"

	"gem/internal/core/verbs"
	"gem/internal/sim"
	"gem/internal/stats"
	"gem/internal/switchsim"
	"gem/internal/wire"
)

// SwitchMAC and SwitchIP are the identity the switch data plane uses as the
// source of the RDMA packets it crafts. Any values work: the memory server's
// RNIC just needs a peer to reply to, and the switch recognizes responses by
// UDP port 4791 + destination QPN.
var (
	SwitchMAC = wire.MACFromUint64(0x02_FE_ED_000001)
	SwitchIP  = wire.IP4{10, 255, 0, 1}
)

// Channel is the data-plane end of one RDMA channel: the connection state
// the channel controller installs into switch registers — remote QPN, rkey,
// base address and region size — plus the running PSN.
//
// All frame crafting happens here; the primitives above it only decide what
// to read or write where.
type Channel struct {
	sw *switchsim.Switch

	// ID is the channel's local QPN: the NIC addresses its responses to
	// this queue pair number, and the Dispatcher routes on it.
	ID uint32
	// Port is the switch port facing the memory server.
	Port int

	// Remote endpoint (installed at setup).
	PeerMAC wire.MAC
	PeerIP  wire.IP4
	PeerQPN uint32
	RKey    uint32
	Base    uint64
	Size    int
	// MTU is the path MTU of the channel (the NIC's response segment
	// size); primitives use it to compute READ response packet counts.
	MTU int

	// AckReq sets the BTH AckReq bit on requests. The prototype leaves it
	// off (the switch ignores ACKs); the reliability extension turns it on.
	AckReq bool
	// Version selects the wire encapsulation (RoCEv2 default; RoCEv1
	// available for §4's overhead comparison and legacy fabrics).
	Version wire.RoCEVersion

	psn *switchsim.RegisterArray

	// credits is the channel's per-QP admission window, installed lazily by
	// the first primitive that needs one (EnsureCredits).
	credits *verbs.Credits

	// cap, when set, rate-limits the channel's request traffic — §7:
	// "use a bandwidth cap to prevent RDMA packets taking too much
	// bandwidth". Requests beyond the cap are refused at inject time and
	// the primitives fall back to their local-accumulation paths.
	cap *tokenBucket

	// RequestMeter counts request frames/bytes the channel injects.
	RequestMeter stats.Meter
	// InjectDrops counts requests that could not be queued at the egress
	// buffer toward the memory server.
	InjectDrops int64
	// CapDrops counts requests refused by the bandwidth cap.
	CapDrops int64
}

// tokenBucket is the classic meter a switch traffic manager implements.
type tokenBucket struct {
	bps    float64 // refill rate in bits per second
	burst  float64 // bucket depth in bits
	tokens float64
	last   sim.Time
}

func (b *tokenBucket) allow(now sim.Time, frameBytes int) bool {
	b.tokens += b.bps * now.Sub(b.last).Seconds()
	b.last = now
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	bits := float64((frameBytes + wire.EthernetFramingOverhead) * 8)
	if b.tokens < bits {
		return false
	}
	b.tokens -= bits
	return true
}

// SetBandwidthCap installs (or, with bps <= 0, removes) a token-bucket cap
// on the channel's request traffic. burstBytes bounds the instantaneous
// burst (default 64 KB when zero).
func (c *Channel) SetBandwidthCap(bps float64, burstBytes int) {
	if bps <= 0 {
		c.cap = nil
		return
	}
	if burstBytes <= 0 {
		burstBytes = 64 << 10
	}
	c.cap = &tokenBucket{
		bps: bps, burst: float64(burstBytes * 8),
		tokens: float64(burstBytes * 8), last: c.sw.Engine.Now(),
	}
}

// newChannel allocates channel state from the switch's SRAM budget.
func newChannel(sw *switchsim.Switch, id uint32, port int) (*Channel, error) {
	psn, err := switchsim.NewRegisterArray(sw.SRAM, fmt.Sprintf("channel%d/psn", id), 1)
	if err != nil {
		return nil, err
	}
	return &Channel{sw: sw, ID: id, Port: port, psn: psn}, nil
}

// Credits returns the channel's admission window (nil until a primitive
// installs one via EnsureCredits).
func (c *Channel) Credits() *verbs.Credits { return c.credits }

// EnsureCredits returns the channel's admission window, creating it from cfg
// if absent. The first caller's configuration wins: the window models the
// QP's responder resources, which are a property of the channel, not of the
// primitive using it.
func (c *Channel) EnsureCredits(cfg verbs.CreditConfig) *verbs.Credits {
	if c.credits == nil {
		c.credits = verbs.NewCredits(cfg)
	}
	return c.credits
}

// NextPSN consumes n packet sequence numbers and returns the first.
func (c *Channel) NextPSN(n uint32) uint32 {
	v := uint32(c.psn.Get(0))
	c.psn.Set(0, uint64((v+n)&verbs.PSNMask))
	return v
}

// PSN returns the next PSN that will be assigned (for tests).
func (c *Channel) PSN() uint32 { return uint32(c.psn.Get(0)) }

// SetPSN forces the next PSN — the resynchronization hook for a strict
// stream whose NIC-side expectation diverged from the switch (a NAK names
// the PSN the NIC wants; see Retransmitter's desync recovery).
func (c *Channel) SetPSN(v uint32) { c.psn.Set(0, uint64(v&verbs.PSNMask)) }

// Now returns the engine clock; part of the verbs.Endpoint contract.
func (c *Channel) Now() sim.Time { return c.sw.Engine.Now() }

// Schedule runs fn after the given delay on the channel's engine; part of
// the verbs.Endpoint contract (the QP's lost-response progress kick).
func (c *Channel) Schedule(after sim.Duration, fn func()) {
	c.sw.Engine.Schedule(after, fn)
}

// RespPackets returns how many response packets a READ of n bytes produces
// at the channel's path MTU — the PSN count the responder will consume.
func (c *Channel) RespPackets(n int) uint32 {
	return uint32((n + c.MTU - 1) / c.MTU)
}

// params returns request addressing by value so it stays on the caller's
// stack (the builders only read through the pointer).
func (c *Channel) params(psn uint32) wire.RoCEParams {
	return wire.RoCEParams{
		SrcMAC: SwitchMAC, DstMAC: c.PeerMAC,
		SrcIP: SwitchIP, DstIP: c.PeerIP,
		UDPSrcPort: uint16(0xC000 | c.ID&0x3FFF),
		DestQP:     c.PeerQPN,
		PSN:        psn,
		AckReq:     c.AckReq,
		Version:    c.Version,
	}
}

// VA converts a region offset to the remote virtual address, panicking on
// out-of-region offsets — primitives are expected to stay in bounds.
func (c *Channel) VA(offset int, n int) uint64 {
	if offset < 0 || offset+n > c.Size {
		panic(fmt.Sprintf("core: channel %d access [%d,%d) outside region of %d bytes",
			c.ID, offset, offset+n, c.Size))
	}
	return c.Base + uint64(offset)
}

// inject hands frame to the switch fabric, recycling it when the request
// cap refuses it; either way the caller no longer owns the buffer.
func (c *Channel) inject(frame []byte) bool {
	if c.cap != nil && !c.cap.allow(c.sw.Engine.Now(), len(frame)) {
		c.CapDrops++
		wire.DefaultPool.Put(frame) // refused by the cap: recycle here
		return false
	}
	c.RequestMeter.Record(len(frame) + wire.EthernetFramingOverhead)
	if !c.sw.Inject(c.Port, frame) {
		c.InjectDrops++
		return false
	}
	return true
}

// Write issues an RDMA WRITE of payload at region offset. The frame is a
// single WRITE ONLY packet — the switch crafts one packet per stored frame;
// the memory channel runs at 4096B path MTU so full Ethernet frames fit.
func (c *Channel) Write(offset int, payload []byte) bool {
	va := c.VA(offset, len(payload))
	p := c.params(c.NextPSN(1))
	frame := wire.BuildWriteOnlyInto(wire.DefaultPool, &p, va, c.RKey, payload)
	return c.inject(frame)
}

// Read issues an RDMA READ of n bytes at region offset. respPkts is how
// many response packets the read will produce at the channel's MTU; the
// caller passes the value the controller computed so PSN accounting matches
// the responder.
func (c *Channel) Read(offset, n int, respPkts uint32) bool {
	va := c.VA(offset, n)
	p := c.params(c.NextPSN(respPkts))
	frame := wire.BuildReadRequestInto(wire.DefaultPool, &p, va, c.RKey, uint32(n))
	return c.inject(frame)
}

// FetchAdd issues an atomic Fetch-and-Add of delta on the 8-byte counter at
// region offset. It returns the PSN used (the atomic ACK echoes it) and
// whether the frame was queued.
func (c *Channel) FetchAdd(offset int, delta uint64) (uint32, bool) {
	va := c.VA(offset, 8)
	psn := c.NextPSN(1)
	p := c.params(psn)
	frame := wire.BuildFetchAddInto(wire.DefaultPool, &p, va, c.RKey, delta)
	return psn, c.inject(frame)
}

// ResponseHandler consumes RoCE responses (READ responses, ACKs, atomic
// ACKs) arriving at the switch for one channel.
type ResponseHandler interface {
	HandleResponse(ctx *switchsim.Context, pkt *wire.Packet)
}

// Dispatcher routes RoCE response packets arriving at the switch to the
// primitive owning the destination QPN, and recirculated frames to the
// primitive that recirculated them. Application pipelines call Dispatch
// first and fall through to their own logic when it returns false.
type Dispatcher struct {
	handlers map[uint32]ResponseHandler
	// ordered holds every distinct handler in first-registration order, so
	// introspection (gem.Stats) walks a deterministic list, never map order.
	ordered []ResponseHandler
	// Unclaimed counts responses and recirculated frames no handler owns.
	Unclaimed int64
}

// recircOwnerShift splits recirculation metadata: the bits above it are the
// QPN the owning handler is registered for, the bits below are its own.
const recircOwnerShift = 32

// recirculator is a handler that takes back the frames it recirculates.
type recirculator interface {
	recirculated(ctx *switchsim.Context, meta int)
}

// NewDispatcher returns an empty dispatcher.
func NewDispatcher() *Dispatcher {
	return &Dispatcher{handlers: make(map[uint32]ResponseHandler)}
}

// sameHandler compares two handlers without panicking on uncomparable
// dynamic types (function adapters register as distinct every time).
func sameHandler(a, b ResponseHandler) bool {
	ta := reflect.TypeOf(a)
	if ta != reflect.TypeOf(b) || !ta.Comparable() {
		return false
	}
	return a == b
}

// Register binds channel ch's responses to h.
func (d *Dispatcher) Register(ch *Channel, h ResponseHandler) {
	d.handlers[ch.ID] = h
	for _, have := range d.ordered {
		if sameHandler(have, h) {
			return
		}
	}
	d.ordered = append(d.ordered, h)
}

// Handlers returns every distinct registered handler in first-registration
// order (a handler registered for several channels appears once).
func (d *Dispatcher) Handlers() []ResponseHandler { return d.ordered }

// Dispatch consumes recirculated frames and RoCE responses, handing each to
// its owner. It returns true when the packet was consumed.
func (d *Dispatcher) Dispatch(ctx *switchsim.Context) bool {
	if ctx.InPort == switchsim.RecirculationPort {
		if r, ok := d.handlers[uint32(ctx.RecircMeta>>recircOwnerShift)].(recirculator); ok {
			r.recirculated(ctx, ctx.RecircMeta&(1<<recircOwnerShift-1))
			return true
		}
		d.Unclaimed++
		ctx.Drop()
		return true
	}
	pkt := ctx.Pkt
	if pkt == nil || !pkt.IsRoCE {
		return false
	}
	op := pkt.BTH.Opcode
	if !op.IsReadResponse() && op != wire.OpAcknowledge && op != wire.OpAtomicAcknowledge {
		return false
	}
	h, ok := d.handlers[pkt.BTH.DestQP]
	if !ok {
		d.Unclaimed++
		ctx.Drop()
		return true
	}
	if !pkt.ICRCOK {
		ctx.Drop()
		return true
	}
	h.HandleResponse(ctx, pkt)
	return true
}
