// Package switchsim models a programmable switch of the Tofino class: a
// multi-port packet-processing device with a parser, a programmable
// match-action pipeline, register state, a shared packet buffer with
// per-port egress queues, and recirculation.
//
// A "P4 program" is Go code implementing the Pipeline interface; it
// receives each parsed packet with a Context exposing exactly the
// operations a Tofino data plane has: emit to a port (optionally several —
// clone), drop, recirculate, read queue depths, and touch tables/registers.
// The remote-memory primitives in internal/core are implemented purely in
// terms of this interface.
package switchsim

import (
	"fmt"

	"gem/internal/fifo"
	"gem/internal/netsim"
	"gem/internal/sim"
	"gem/internal/wire"
)

// Config sets the switch's fixed hardware characteristics.
type Config struct {
	// PipelineLatency is the ingress parse+match+action latency per pass.
	PipelineLatency sim.Duration
	// BufferBytes is the shared packet buffer; the sum of all egress
	// queue occupancies cannot exceed it (tail drop beyond).
	BufferBytes int
	// PerPortCapBytes optionally caps a single egress queue (0 = only the
	// shared limit applies).
	PerPortCapBytes int
	// SRAMBytes is the table/register budget.
	SRAMBytes int
	// RecirculationLatency is the extra delay of one recirculation pass.
	RecirculationLatency sim.Duration
	// ECNThresholdBytes, when positive, marks the ECN field (CE) of IPv4
	// packets that join an egress queue deeper than this — the hook the
	// paper's §2.1 relies on for end-to-end congestion control "based on
	// ECN" to slow persistent overload.
	ECNThresholdBytes int
	// RDMAPriority gives RoCE frames a strict-priority queue on every
	// egress port — §7: "one may prioritize these RDMA packets so that
	// they are less likely to be dropped". Non-RoCE traffic uses the
	// best-effort queue and is served only when the priority queue is
	// empty.
	RDMAPriority bool
}

// DefaultConfig matches the paper's testbed switch: 12 MB packet buffer,
// 20 MB SRAM, sub-microsecond pipeline.
func DefaultConfig() Config {
	return Config{
		PipelineLatency:      450 * sim.Nanosecond,
		BufferBytes:          12 << 20,
		SRAMBytes:            20 << 20,
		RecirculationLatency: 700 * sim.Nanosecond,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.PipelineLatency == 0 {
		c.PipelineLatency = d.PipelineLatency
	}
	if c.BufferBytes == 0 {
		c.BufferBytes = d.BufferBytes
	}
	if c.SRAMBytes == 0 {
		c.SRAMBytes = d.SRAMBytes
	}
	if c.RecirculationLatency == 0 {
		c.RecirculationLatency = d.RecirculationLatency
	}
}

// Pipeline is the "P4 program" slot.
type Pipeline interface {
	// Ingress processes one parsed packet. Emit/Drop decisions are made
	// through ctx; returning without emitting drops the packet.
	Ingress(ctx *Context)
}

// PipelineFunc adapts a function to Pipeline.
type PipelineFunc func(ctx *Context)

// Ingress implements Pipeline.
func (f PipelineFunc) Ingress(ctx *Context) { f(ctx) }

// EgressHooks receive traffic-manager events; the packet-buffer primitive
// uses them as its store/load triggers.
type EgressHooks interface {
	// PacketEnqueued fires after a frame joins the egress queue of port.
	PacketEnqueued(port int, queueBytes int)
	// PacketDeparted fires after a frame finishes serialization on port.
	PacketDeparted(port int, queueBytes int)
}

// Stats aggregates switch-level counters.
type Stats struct {
	RxFrames     int64
	TxFrames     int64
	ParseErrors  int64
	BufferDrops  int64 // tail drops at the shared buffer / per-port cap
	Recirculated int64
	NoRoute      int64 // pipeline chose to drop (no emit)
	PFCFrames    int64 // 802.1Qbb pause/resume frames honoured
	ECNMarked    int64 // packets CE-marked at a deep egress queue

	// FirstBufferDrop records when the first tail drop happened (the
	// §2.1 "buffer fills within 0.34 ms" observable); meaningful only
	// when BufferDrops > 0.
	FirstBufferDrop sim.Time
}

// RecirculationPort is the pseudo port index used for recirculated frames.
const RecirculationPort = -1

type egressQueue struct {
	frames fifo.Queue[[]byte] // best-effort FIFO
	prio   fifo.Queue[[]byte] // strict-priority FIFO (RDMAPriority)
	bytes  int
	busy   bool
	// pausedUntil implements 802.1Qbb: the port does not transmit before
	// this time (refreshed/cleared by PFC frames from the peer).
	pausedUntil sim.Time
	resumeEvent *sim.Event
	// Drops counts tail drops on this queue.
	Drops int64
	// Peak tracks the maximum occupancy seen.
	Peak int
}

// Switch is the device. Create with New, wire with netsim.Net.Connect, then
// Bind the resulting ports in order.
type Switch struct {
	name   string
	Cfg    Config
	Engine *sim.Engine
	SRAM   *SRAMBudget
	Stats  Stats

	Pipeline Pipeline
	Hooks    EgressHooks
	// TraceFn, when set, observes every frame at the switch boundary:
	// event is "rx" (arrived on port) or "tx" (started serialization on
	// port). Used by internal/trace; nil costs nothing.
	TraceFn func(event string, port int, frame []byte)

	ports   []*netsim.Port
	queues  []*egressQueue
	bufUsed int

	// parse buffer reused across packets (DecodingLayerParser pattern).
	pkt wire.Packet
	// ctx is the one Context every runPipeline pass hands to the pipeline,
	// rewritten per pass like pkt; inPass guards it against re-entry.
	ctx    Context
	inPass bool
}

// New creates a switch with the given config (zero fields take defaults).
func New(name string, engine *sim.Engine, cfg Config) *Switch {
	cfg.fillDefaults()
	return &Switch{
		name:   name,
		Cfg:    cfg,
		Engine: engine,
		SRAM:   NewSRAMBudget(cfg.SRAMBytes),
	}
}

// Name implements netsim.Device.
func (s *Switch) Name() string { return s.name }

// Bind registers the switch's ports (in index order) after wiring. It must
// be called once with every port returned by Connect for this switch.
func (s *Switch) Bind(ports ...*netsim.Port) {
	s.ports = ports
	s.queues = make([]*egressQueue, len(ports))
	for i := range s.queues {
		s.queues[i] = &egressQueue{}
	}
	for i, p := range ports {
		if p.Index() != i {
			panic(fmt.Sprintf("switchsim: port %d bound at position %d", p.Index(), i))
		}
	}
}

// NumPorts returns the port count.
func (s *Switch) NumPorts() int { return len(s.ports) }

// Port returns port i.
func (s *Switch) Port(i int) *netsim.Port { return s.ports[i] }

// QueueBytes returns the egress queue occupancy of port i in bytes.
func (s *Switch) QueueBytes(i int) int { return s.queues[i].bytes }

// QueuePeak returns the maximum occupancy port i's queue has reached.
func (s *Switch) QueuePeak(i int) int { return s.queues[i].Peak }

// QueueDrops returns tail drops on port i.
func (s *Switch) QueueDrops(i int) int64 { return s.queues[i].Drops }

// BufferUsed returns the shared-buffer occupancy in bytes.
func (s *Switch) BufferUsed() int { return s.bufUsed }

// Receive implements netsim.Device: frames enter the ingress pipeline after
// the pipeline latency. MAC control (PFC) frames are consumed at the MAC
// layer, pausing the egress queue of the receiving port.
func (s *Switch) Receive(port *netsim.Port, frame []byte) {
	s.Stats.RxFrames++
	in := port.Index()
	if s.TraceFn != nil {
		s.TraceFn("rx", in, frame)
	}
	if wire.IsMACControl(frame) {
		if pfc, ok := wire.DecodePFC(frame); ok {
			s.handlePFC(in, &pfc)
			wire.DefaultPool.Put(frame) // consumed at the MAC layer
			return
		}
	}
	s.Engine.ScheduleCall(s.Cfg.PipelineLatency, switchIngress, s, frame, in)
}

// switchIngress is the event body of a pipeline pass: arg is the ingress
// port (RecirculationPort for a recirculated frame).
func switchIngress(recv any, frame []byte, inPort int) {
	recv.(*Switch).runPipeline(inPort, frame)
}

// handlePFC pauses or resumes transmission on port per the class-0 quanta.
func (s *Switch) handlePFC(port int, pfc *wire.PFC) {
	if pfc.ClassEnable&1 == 0 {
		return
	}
	s.Stats.PFCFrames++
	q := s.queues[port]
	quanta := pfc.PauseQuanta[0]
	if q.resumeEvent != nil {
		s.Engine.Cancel(q.resumeEvent)
		q.resumeEvent = nil
	}
	if quanta == 0 {
		q.pausedUntil = s.Engine.Now()
		if !q.busy {
			s.transmitNext(port)
		}
		return
	}
	bitTime := 1e9 / s.ports[port].RateBps()
	d := sim.Duration(float64(quanta) * wire.PFCQuantum * bitTime)
	q.pausedUntil = s.Engine.Now().Add(d)
	//gem:alloc-ok one timer per pause frame, not per packet
	q.resumeEvent = s.Engine.Schedule(d, func() {
		q.resumeEvent = nil
		if !q.busy {
			s.transmitNext(port)
		}
	})
}

func (s *Switch) runPipeline(inPort int, frame []byte) {
	if s.Pipeline == nil {
		s.Stats.NoRoute++
		wire.DefaultPool.Put(frame) // no pipeline: the switch is the terminal consumer
		return
	}
	// The pass borrows the switch's one Context (and parse buffer). Nothing
	// the pipeline can call starts another pass synchronously — Recirculate
	// and Receive both go through the engine — so only a bug re-enters.
	if s.inPass {
		panic("switchsim: runPipeline re-entered during a pipeline pass")
	}
	s.inPass = true
	ctx := &s.ctx
	*ctx = Context{sw: s, InPort: inPort, Frame: frame}
	if err := s.pkt.DecodeFromBytes(frame); err != nil {
		s.Stats.ParseErrors++
		ctx.ParseErr = err
	} else {
		ctx.Pkt = &s.pkt
		ctx.Priority = ClassifyDSCP(ctx.Pkt)
	}
	s.Pipeline.Ingress(ctx)
	s.inPass = false
	if ctx.frameSent || ctx.retained {
		return
	}
	if !ctx.dropped && !ctx.emitted {
		s.Stats.NoRoute++
	}
	// Nothing was enqueued or parked — conscious drop or no route — so the
	// switch is the frame's terminal consumer. Pipelines that keep payload
	// bytes copy them first (see the Drop contract).
	wire.DefaultPool.Put(frame)
}

// enqueue places frame on the egress queue of port, enforcing buffer limits.
// It returns false on tail drop.
func (s *Switch) enqueue(port int, frame []byte) bool {
	q := s.queues[port]
	n := len(frame)
	if s.bufUsed+n > s.Cfg.BufferBytes ||
		(s.Cfg.PerPortCapBytes > 0 && q.bytes+n > s.Cfg.PerPortCapBytes) {
		q.Drops++
		if s.Stats.BufferDrops == 0 {
			s.Stats.FirstBufferDrop = s.Engine.Now()
		}
		s.Stats.BufferDrops++
		wire.DefaultPool.Put(frame) // tail drop: buffer is recycled
		return false
	}
	if s.Cfg.ECNThresholdBytes > 0 && q.bytes >= s.Cfg.ECNThresholdBytes {
		if markECN(frame) {
			s.Stats.ECNMarked++
		}
	}
	if s.Cfg.RDMAPriority && isRoCEFrame(frame) {
		q.prio.Push(frame)
	} else {
		q.frames.Push(frame)
	}
	q.bytes += n
	s.bufUsed += n
	if q.bytes > q.Peak {
		q.Peak = q.bytes
	}
	if s.Hooks != nil {
		s.Hooks.PacketEnqueued(port, q.bytes)
	}
	if !q.busy {
		s.transmitNext(port)
	}
	return true
}

// transmitNext serializes the head-of-line frame of port's queue, serving
// the strict-priority class first.
func (s *Switch) transmitNext(port int) {
	q := s.queues[port]
	if (q.frames.Len() == 0 && q.prio.Len() == 0) || s.Engine.Now() < q.pausedUntil {
		q.busy = false
		return
	}
	q.busy = true
	var frame []byte
	if q.prio.Len() > 0 {
		frame = q.prio.Pop()
	} else {
		frame = q.frames.Pop()
	}
	p := s.ports[port]
	if s.TraceFn != nil {
		s.TraceFn("tx", port, frame)
	}
	p.Send(frame)
	s.Stats.TxFrames++
	// The frame's buffer bytes are released when serialization completes.
	// The frame itself now belongs to the port, so the departure event
	// carries only what it needs: the port and the length, packed in arg.
	n := len(frame)
	s.Engine.ScheduleCall(p.SerializationDelay(n), switchDeparted, s, nil, port<<departLenBits|n)
}

// departLenBits is the width of the frame length in a departure event's arg;
// the port number sits above it. 2^20 is far beyond any frame the pool makes.
const departLenBits = 20

// switchDeparted is the event body of a frame leaving an egress queue.
func switchDeparted(recv any, _ []byte, arg int) {
	s := recv.(*Switch)
	port, n := arg>>departLenBits, arg&(1<<departLenBits-1)
	q := s.queues[port]
	q.bytes -= n
	s.bufUsed -= n
	if s.Hooks != nil {
		s.Hooks.PacketDeparted(port, q.bytes)
	}
	s.transmitNext(port)
}

// isRoCEFrame classifies a frame as RDMA traffic by its encapsulation:
// RoCEv1 ethertype, or UDP destination port 4791.
func isRoCEFrame(frame []byte) bool {
	if wire.IsRoCEv1Frame(frame) {
		return true
	}
	// Fast check: IPv4 + UDP + dst port 4791 at fixed offsets (no options
	// in this simulation).
	const udpOff = wire.EthernetLen + wire.IPv4Len
	if len(frame) < udpOff+wire.UDPLen {
		return false
	}
	if frame[12] != 0x08 || frame[13] != 0x00 { // not IPv4
		return false
	}
	if frame[wire.EthernetLen+9] != wire.ProtoUDP {
		return false
	}
	port := uint16(frame[udpOff+2])<<8 | uint16(frame[udpOff+3])
	return port == wire.UDPPortRoCEv2
}

// markECN sets CE (11) in the IPv4 ECN field and repairs the header
// checksum. It reports false for non-IPv4 frames.
func markECN(frame []byte) bool {
	if len(frame) < wire.EthernetLen+wire.IPv4Len {
		return false
	}
	var eth wire.Ethernet
	if eth.DecodeFromBytes(frame) != nil || eth.EtherType != wire.EtherTypeIPv4 {
		return false
	}
	ip := frame[wire.EthernetLen:]
	var h wire.IPv4
	if h.DecodeFromBytes(ip) != nil {
		return false
	}
	h.ECN = 3 // CE
	h.Put(ip) // rewrites the checksum
	return true
}

// Inject enqueues a switch-generated frame (e.g. an RDMA request crafted by
// a primitive) for egress on port, exactly as Context.Emit does for transit
// packets. It reports whether the frame was accepted.
func (s *Switch) Inject(port int, frame []byte) bool {
	if port < 0 || port >= len(s.ports) {
		panic(fmt.Sprintf("switchsim: inject to invalid port %d", port))
	}
	return s.enqueue(port, frame)
}

// Priority is the two-class admission priority the overload-protection
// layer keys on: under pressure, primitives shed PriorityLow traffic first
// (counted, never silent) while PriorityHigh keeps exactness guarantees.
type Priority uint8

const (
	PriorityLow Priority = iota
	PriorityHigh
)

// ClassifyDSCP maps a parsed packet to its admission priority: IPv4 DSCP in
// the expedited/network-control bands (>= 32, which covers CS4-CS7, EF and
// the VOICE-ADMIT class) is high priority, everything else — including
// unparsed or non-IP frames — is low.
func ClassifyDSCP(pkt *wire.Packet) Priority {
	if pkt != nil && pkt.HasIPv4 && pkt.IP.DSCP >= 32 {
		return PriorityHigh
	}
	return PriorityLow
}

// Context is the pipeline's view of one packet in flight, mirroring the
// intrinsic metadata and primitive actions a P4 program has.
//
// The Context a Receive or recirculation pass hands to Ingress is the
// switch's own and is rewritten by the next pass: a pipeline must not keep
// the pointer past Ingress. To hold a packet across passes, Retain parks the
// frame (not the context) and the continuation builds a fresh NewContext.
type Context struct {
	sw     *Switch
	InPort int
	// Pkt is the parsed view (nil if parsing failed; see ParseErr).
	Pkt      *wire.Packet
	ParseErr error
	// Frame is the raw frame.
	Frame []byte
	// Priority is the packet's admission class, marked at parse time from
	// the IPv4 DSCP (see ClassifyDSCP). The overload-protection layer sheds
	// PriorityLow traffic first; PriorityHigh keeps exactness guarantees.
	Priority Priority

	emitted   bool
	dropped   bool
	retained  bool
	frameSent bool // the ingress Frame buffer itself was handed to the TM
}

// sameBuffer reports whether two slices share a backing buffer (compared by
// first-byte address, which re-slicing from the front preserves).
func sameBuffer(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// NewContext builds a pipeline context bound to the switch for frames the
// data plane synthesizes outside a Receive pass (e.g. recirculation
// continuations). Pkt is left nil; callers parse if they need headers.
func (s *Switch) NewContext(inPort int, frame []byte) *Context {
	return &Context{sw: s, InPort: inPort, Frame: frame}
}

// Switch returns the switch processing the packet.
func (c *Context) Switch() *Switch { return c.sw }

// Now returns the current virtual time.
func (c *Context) Now() sim.Time { return c.sw.Engine.Now() }

// Emit queues frame for egress on port. It may be called multiple times
// (clone/mirror), but each call must pass a distinct buffer — ownership of
// frame transfers to the traffic manager, which recycles it on tail drop
// and after terminal consumption, so clones must be copies. It reports
// whether the frame was accepted (false = tail drop at the buffer).
func (c *Context) Emit(port int, frame []byte) bool {
	if port < 0 || port >= len(c.sw.ports) {
		panic(fmt.Sprintf("switchsim: emit to invalid port %d", port))
	}
	c.emitted = true
	if sameBuffer(frame, c.Frame) {
		c.frameSent = true
	}
	return c.sw.enqueue(port, frame)
}

// Drop marks the packet consciously dropped (distinct from "no route").
func (c *Context) Drop() { c.dropped = true }

// DropFrame consciously drops a specific frame the caller owns. The ingress
// Frame is left to the pass (runPipeline/Finish recycles it as usual); any
// other buffer — a bounced original, a rewritten copy — is recycled here,
// since the pass only accounts for the ingress buffer.
//
//gem:owns
func (c *Context) DropFrame(frame []byte) {
	c.dropped = true
	if !sameBuffer(frame, c.Frame) {
		wire.DefaultPool.Put(frame)
	}
}

// Retain marks the frame as parked beyond this pipeline pass — e.g. held
// for a scheduled recirculation continuation — so the switch does not
// recycle it when the pass ends. Ownership transfers to the retainer,
// which must eventually Emit the frame, hand it to another owner, or
// return it to wire.DefaultPool itself.
func (c *Context) Retain() { c.retained = true }

// Finish completes a context synthesized with NewContext outside a Receive
// pass: unless the Frame buffer itself was emitted/recirculated or retained,
// the caller stands in for the switch as the frame's terminal consumer and
// the buffer is recycled. Emitting a *different* buffer (a rewritten copy, a
// bounced original) does not consume the ingress frame. runPipeline does the
// equivalent for Receive passes.
func (c *Context) Finish() {
	if !c.frameSent && !c.retained {
		wire.DefaultPool.Put(c.Frame)
	}
}

// Recirculate re-injects frame into the ingress pipeline after the
// recirculation latency, as Tofino's loopback port does.
func (c *Context) Recirculate(frame []byte) {
	c.emitted = true
	if sameBuffer(frame, c.Frame) {
		c.frameSent = true
	}
	c.sw.Stats.Recirculated++
	c.sw.Engine.ScheduleCall(c.sw.Cfg.RecirculationLatency, switchIngress, c.sw, frame, RecirculationPort)
}

// QueueBytes reads the egress queue depth of port — the trigger signal for
// the packet-buffer primitive.
func (c *Context) QueueBytes(port int) int { return c.sw.QueueBytes(port) }
