package rnic

import (
	"fmt"

	"gem/internal/core/verbs"
	"gem/internal/fifo"
	"gem/internal/netsim"
	"gem/internal/sim"
	"gem/internal/wire"
)

// PSNMode selects how a queue pair's responder treats packet sequence
// numbers.
type PSNMode int

const (
	// PSNTolerant (the default) accepts any PSN at or ahead of the
	// expected one, counting gaps but continuing. This is how the paper's
	// prototype channels must run: the switch does not retransmit, so a
	// strict responder would wedge after a single drop.
	PSNTolerant PSNMode = iota
	// PSNStrict follows the InfiniBand RC rules: a gap produces one NAK
	// and everything until the retransmission is discarded. Used by the
	// native host-to-host baseline and the switch reliability extension.
	PSNStrict
)

// QP is a queue pair endpoint on the NIC (responder side). The fields are
// fixed at creation by the channel controller.
type QP struct {
	Number  uint32
	Mode    PSNMode
	PeerMAC wire.MAC
	PeerIP  wire.IP4
	PeerQPN uint32
	// Version selects the response encapsulation (RoCEv2 default).
	Version wire.RoCEVersion

	ePSN     uint32 // next expected request PSN
	msn      uint32 // message sequence number
	nakked   bool   // strict mode: a NAK for the current gap was sent
	writeVA  uint64 // running cursor for multi-packet WRITEs
	writeKey uint32

	// Per-QP ordering (IBA: requests on a QP execute in order). Writes
	// and atomics pipeline on the write engine; a READ admitted after n
	// writes may not start until those n writes have committed.
	writeSeq  uint64 // writes/atomics admitted
	writeDone uint64 // writes/atomics committed

	// atomicReplay caches recent atomic results so duplicate requests
	// (retransmissions whose ACK was lost) replay instead of re-executing.
	// Real RNICs advertise a fixed "responder resources" depth; 64 covers
	// any requester window used here (requesters must not keep more
	// atomics outstanding than this, or replays can miss).
	atomicReplay [64]atomicResult
	atomicHead   int
}

type atomicResult struct {
	psn   uint32
	orig  uint64
	valid bool
}

func (q *QP) rememberAtomic(psn uint32, orig uint64) {
	q.atomicReplay[q.atomicHead] = atomicResult{psn: psn, orig: orig, valid: true}
	q.atomicHead = (q.atomicHead + 1) % len(q.atomicReplay)
}

func (q *QP) replayAtomic(psn uint32) (uint64, bool) {
	for _, r := range q.atomicReplay {
		if r.valid && r.psn == psn {
			return r.orig, true
		}
	}
	return 0, false
}

// ExpectedPSN returns the responder's next expected PSN (for tests).
func (q *QP) ExpectedPSN() uint32 { return q.ePSN }

// SetExpectedPSN forces the responder's next expected PSN — the rq_psn
// attribute of a real ModifyQP call, used when the two ends agree on a
// starting PSN other than zero.
func (q *QP) SetExpectedPSN(v uint32) { q.ePSN = v & verbs.PSNMask }

// pendingOp is a request admitted to the RX ring awaiting execution.
type pendingOp struct {
	pkt     wire.Packet
	payload []byte // copied WRITE payload (frame buffer is reused upstream)
	qp      *QP
	barrier uint64 // READs: writeDone level required before execution
}

// NIC is an RDMA NIC attached to one switch-facing port. It implements
// netsim.Device. RoCE frames addressed to it are handled entirely on the
// NIC; anything else is punted to Owner's software stack (costing CPU).
type NIC struct {
	name string
	MAC  wire.MAC
	IP   wire.IP4

	Cfg   Config
	Stats Stats

	engine *sim.Engine
	port   *netsim.Port

	regions map[uint32]*Region
	qps     map[uint32]*QP
	nextQPN uint32
	nextKey uint32

	// Execution queues: the RX ring, split by direction the way the
	// hardware is — inbound WRITEs/atomics consume the DMA-write path,
	// READ service consumes the DMA-read path, and the two run
	// concurrently. The RxRing bound applies to their sum.
	wring, rring fifo.Queue[pendingOp]
	wbusy, rbusy bool
	// wexec and rexec hold the op each engine is executing (valid while the
	// side is busy), so the completion event carries only the side.
	wexec, rexec pendingOp
	// readStage holds a READ response chunk that no single region page
	// covers (it straddles two, or was never written) while it is built.
	readStage []byte

	// PFC state (Cfg.EnablePFC): whether a pause is in force toward the
	// switch, refreshed while the ring stays congested.
	pfcPaused bool

	// failed marks a crashed server: the NIC goes silent (frames counted
	// in Stats.DroppedWhileFailed, nothing processed, nothing sent).
	failed bool

	// slowFactor > 1 stretches execution occupancy and response latency —
	// a sick-but-alive server (thermal throttling, a noisy neighbour on the
	// PCIe root). 0 or 1 means full speed.
	slowFactor float64

	// Requester side (nil unless the host posts verbs); see requester.go.
	req *Requester

	// Owner receives non-RoCE frames in software.
	Owner *netsim.Host
}

// New creates a NIC for host owner with the given config (zero fields take
// defaults). Attach it to the fabric with net.Connect(nic, ...), then call
// Bind with the resulting port.
func New(name string, owner *netsim.Host, cfg Config) *NIC {
	cfg.fillDefaults()
	return &NIC{
		name:    name,
		MAC:     owner.MAC,
		IP:      owner.IP,
		Cfg:     cfg,
		regions: make(map[uint32]*Region),
		qps:     make(map[uint32]*QP),
		nextQPN: 0x11, nextKey: 0x1000,
		Owner: owner,
	}
}

// Name implements netsim.Device.
func (n *NIC) Name() string { return n.name }

// Bind associates the NIC with its fabric port and engine. Must be called
// once after netsim.Net.Connect.
func (n *NIC) Bind(engine *sim.Engine, port *netsim.Port) {
	n.engine = engine
	n.port = port
}

// Port returns the bound fabric port.
func (n *NIC) Port() *netsim.Port { return n.port }

// RegisterMemory registers size bytes of host DRAM at virtual address base
// and returns the region. This is a control-plane (initialization) action.
func (n *NIC) RegisterMemory(base uint64, size int) *Region {
	r := &Region{RKey: n.nextKey, Base: base, Size: size}
	n.nextKey++
	n.regions[r.RKey] = r
	return r
}

// CreateQP creates a responder queue pair and returns it. mode selects PSN
// handling (see PSNMode).
func (n *NIC) CreateQP(mode PSNMode) *QP {
	q := &QP{Number: n.nextQPN, Mode: mode}
	n.nextQPN++
	n.qps[q.Number] = q
	return q
}

// LookupRegion returns the region registered under rkey, or nil.
func (n *NIC) LookupRegion(rkey uint32) *Region { return n.regions[rkey] }

// LookupQP returns the responder queue pair numbered qpn, or nil — the
// control-plane handle for per-QP attributes (ExpectedPSN, SetExpectedPSN).
func (n *NIC) LookupQP(qpn uint32) *QP { return n.qps[qpn] }

// Fail simulates a server crash: from now on the NIC neither processes nor
// answers anything. Recover brings it back (state intact — a reboot would
// additionally clear regions, which the caller can do via the region data).
func (n *NIC) Fail()    { n.failed = true }
func (n *NIC) Recover() { n.failed = false }

// WipeRegions drops the backing of every registered memory region — the
// DRAM contents a real reboot loses — and returns the number of bytes lost
// (every registered byte). A wiped region is like a fresh one: it reads as
// zeros, holds no memory, and allocates pages again only where written. It
// models a power-cycle restart (faults.CrashWipe routes here); the regions
// stay registered with their rkeys, only their contents are gone. Note the
// atomic-replay caches (QP.atomicReplay) are deliberately NOT cleared: they are
// NIC-side transport state, and wiping them would turn a retransmitted FAA
// into a double-apply, which is a different fault than data loss.
func (n *NIC) WipeRegions() int {
	total := 0
	//gem:deterministic — dropping every region is order-independent
	for _, r := range n.regions {
		r.pages, r.grow = nil, 0
		total += r.Size
	}
	return total
}

// Failed reports whether the NIC is in the crashed state.
func (n *NIC) Failed() bool { return n.failed }

// Slow puts the NIC into a degraded mode where every operation's execution
// occupancy and response latency take factor times longer (factor <= 1
// restores full speed). Unlike Fail, a slow server still answers — late —
// which is the harder case for timeout-based failure detection.
func (n *NIC) Slow(factor float64) { n.slowFactor = factor }

// SlowFactor returns the current slowdown multiplier (>= 1).
func (n *NIC) SlowFactor() float64 {
	if n.slowFactor > 1 {
		return n.slowFactor
	}
	return 1
}

// Receive implements netsim.Device. The NIC is the terminal consumer of
// every RoCE frame it accepts: the frame buffer is recycled before Receive
// returns (request/response handlers copy what they keep). Non-RoCE frames
// pass ownership on to Owner's software stack.
func (n *NIC) Receive(port *netsim.Port, frame []byte) {
	if n.failed {
		n.Stats.DroppedWhileFailed++
		wire.DefaultPool.Put(frame)
		return
	}
	var pkt wire.Packet
	if err := pkt.DecodeFromBytes(frame); err != nil {
		n.Stats.MalformedFrames++
		wire.DefaultPool.Put(frame)
		return
	}
	if pkt.Eth.Dst != n.MAC && !pkt.Eth.Dst.IsBroadcast() {
		wire.DefaultPool.Put(frame)
		return // not for us; a NIC filters by MAC
	}
	if !pkt.IsRoCE {
		if n.Owner != nil {
			n.Owner.Receive(port, frame)
		} else {
			wire.DefaultPool.Put(frame)
		}
		return
	}
	if !pkt.ICRCOK {
		n.Stats.BadICRC++
		wire.DefaultPool.Put(frame)
		return
	}
	// Responses terminate at the requester engine.
	if op := pkt.BTH.Opcode; op.IsReadResponse() || op == wire.OpAcknowledge || op == wire.OpAtomicAcknowledge {
		if n.req != nil {
			n.req.handleResponse(&pkt)
		}
		wire.DefaultPool.Put(frame)
		return
	}
	n.handleRequest(&pkt)
	wire.DefaultPool.Put(frame)
}

func (n *NIC) handleRequest(pkt *wire.Packet) {
	qp := n.qps[pkt.BTH.DestQP]
	if qp == nil {
		n.Stats.MalformedFrames++
		return
	}
	if !n.admitPSN(qp, pkt) {
		return
	}
	// Each engine has its own RX ring (send and receive work queues are
	// separate resources on real NICs); a write flood cannot starve READ
	// admission.
	op := pendingOp{pkt: *pkt, qp: qp}
	// The frame buffer is recycled when Receive returns; the queued op must
	// not alias it. The WRITE payload is the only slice view we keep.
	op.pkt.Payload = nil
	if pkt.BTH.Opcode == wire.OpReadRequest {
		if n.rring.Len() >= n.Cfg.RxRing {
			n.Stats.RxRingDrops++
			return
		}
		op.barrier = qp.writeSeq // read-after-write ordering point
		n.rring.Push(op)
		if !n.rbusy {
			n.executeNext(false)
		}
	} else {
		if n.wring.Len() >= n.Cfg.RxRing {
			n.Stats.RxRingDrops++
			return
		}
		if pkt.BTH.Opcode.IsWrite() {
			op.payload = wire.DefaultPool.Get(len(pkt.Payload))
			copy(op.payload, pkt.Payload)
		}
		qp.writeSeq++
		n.wring.Push(op)
		if !n.wbusy {
			n.executeNext(true)
		}
	}
	n.updatePFC()
}

// updatePFC emits pause/resume frames around the write-ring watermarks.
func (n *NIC) updatePFC() {
	if !n.Cfg.EnablePFC {
		return
	}
	occupancy := n.wring.Len() + n.rring.Len()
	high := n.Cfg.RxRing * 3 / 4
	low := n.Cfg.RxRing / 4
	switch {
	case !n.pfcPaused && occupancy >= high:
		n.pfcPaused = true
		n.sendPause()
	case n.pfcPaused && occupancy <= low:
		n.pfcPaused = false
		n.Stats.PFCResumes++
		n.port.Send(wire.BuildPFCInto(wire.DefaultPool, n.MAC, 0))
	}
}

// sendPause emits a max-quanta pause and keeps refreshing it at ~70% of the
// pause horizon until the congestion clears.
func (n *NIC) sendPause() {
	if !n.pfcPaused {
		return
	}
	n.Stats.PFCPauses++
	n.port.Send(wire.BuildPFCInto(wire.DefaultPool, n.MAC, 0xFFFF))
	refresh := sim.Duration(0.7 * 65535 * wire.PFCQuantum * 1e9 / n.port.RateBps())
	n.engine.ScheduleCall(refresh, nicRefreshPause, n, nil, 0)
}

func nicRefreshPause(recv any, _ []byte, _ int) { recv.(*NIC).sendPause() }

// admitPSN applies the QP's PSN policy. It returns false if the packet must
// be discarded.
func (n *NIC) admitPSN(qp *QP, pkt *wire.Packet) bool {
	psn := pkt.BTH.PSN
	switch {
	case psn == qp.ePSN:
		qp.nakked = false
		qp.ePSN = (qp.ePSN + n.psnConsumed(pkt)) & verbs.PSNMask
		return true
	case psnAfter(psn, qp.ePSN): // gap: requests were lost
		n.Stats.SeqGaps++
		if qp.Mode == PSNTolerant {
			qp.ePSN = (psn + n.psnConsumed(pkt)) & verbs.PSNMask
			return true
		}
		if !qp.nakked {
			n.sendNak(qp, wire.AETHNakPSNSeq)
			qp.nakked = true
		}
		return false
	default: // duplicate
		n.Stats.DupRequests++
		if pkt.BTH.Opcode == wire.OpReadRequest {
			// The IB RC rules permit re-executing duplicate READs; the
			// requester's go-back-N recovery depends on it.
			return true
		}
		if pkt.BTH.Opcode.IsAtomic() {
			if orig, ok := qp.replayAtomic(psn); ok {
				// Replay the cached result rather than re-executing.
				params := n.roceParams(qp, psn)
				n.scheduleResponse(qp, wire.BuildAtomicAckInto(wire.DefaultPool, &params, qp.msn, orig))
			}
			return false
		}
		if pkt.BTH.AckReq {
			// Re-ack the duplicate with its own PSN (already executed).
			n.sendAck(qp, psn)
		}
		return false
	}
}

// psnConsumed returns how many PSNs a request occupies: one for every
// request packet except READ, which reserves one PSN per response packet.
func (n *NIC) psnConsumed(pkt *wire.Packet) uint32 {
	if pkt.BTH.Opcode == wire.OpReadRequest {
		pkts := (int(pkt.RETH.DMALen) + n.Cfg.MTU - 1) / n.Cfg.MTU
		if pkts < 1 {
			pkts = 1
		}
		return uint32(pkts)
	}
	return 1
}

// psnAfter reports whether a comes strictly after b in 24-bit sequence
// space. One definition serves both sides of the wire: the switch transport
// (verbs.QP completion matching, Retransmitter window arithmetic) and this
// responder negotiate completion semantics over the same comparison.
func psnAfter(a, b uint32) bool { return verbs.PSNAfter(a, b) }

// executeNext drains one RX ring (writes+atomics or reads) under the NIC's
// rate caps.
func (n *NIC) executeNext(writeSide bool) {
	ring, busy, op := &n.rring, &n.rbusy, &n.rexec
	if writeSide {
		ring, busy, op = &n.wring, &n.wbusy, &n.wexec
	}
	if ring.Len() == 0 {
		*busy = false
		return
	}
	if !writeSide {
		// Honour the read-after-write barrier: the head READ may not
		// start until its QP's earlier writes committed. Write
		// completions re-kick this engine.
		head := ring.Peek()
		if head.qp != nil && head.qp.writeDone < head.barrier {
			*busy = false
			return
		}
	}
	*busy = true
	*op = ring.Pop()

	// occupancy is how long the op holds its execution pipeline (this is
	// what caps throughput); ProcessingDelay is added latency only — real
	// NICs pipeline ops, so fixed latency does not cost throughput.
	var occupancy sim.Duration
	switch opc := op.pkt.BTH.Opcode; {
	case opc.IsWrite():
		occupancy = sim.Duration(float64(len(op.payload)) * 8 / n.Cfg.WritePayloadBps * 1e9)
	case opc == wire.OpReadRequest:
		occupancy = sim.Duration(float64(op.pkt.RETH.DMALen) * 8 / n.Cfg.ReadPayloadBps * 1e9)
	case opc.IsAtomic():
		occupancy = sim.Duration(1e9 / n.Cfg.AtomicOpsPerSec)
	}
	if f := n.SlowFactor(); f > 1 {
		occupancy = sim.Duration(float64(occupancy) * f)
	}
	n.updatePFC()
	side := 0
	if writeSide {
		side = 1
	}
	n.engine.ScheduleCall(occupancy, nicExecDone, n, nil, side)
}

// nicExecDone fires at the end of an op's occupancy on one engine (arg 1 =
// write side). The memory effect commits when the DMA finishes, here;
// ProcessingDelay only delays the response packet (applied in
// scheduleResponse). Committing here keeps the read-after-write barrier
// tight.
func nicExecDone(recv any, _ []byte, side int) {
	n := recv.(*NIC)
	if side == 1 {
		n.complete(&n.wexec)
	} else {
		n.complete(&n.rexec)
	}
	n.executeNext(side == 1)
}

// complete performs the memory operation and emits any response.
func (n *NIC) complete(op *pendingOp) {
	qp := n.qps[op.pkt.BTH.DestQP]
	if qp == nil {
		return
	}
	switch opc := op.pkt.BTH.Opcode; {
	case opc.IsWrite():
		n.completeWrite(qp, op)
		wire.DefaultPool.Put(op.payload) // copied into the region (or NAKed)
		op.payload = nil
	case opc == wire.OpReadRequest:
		n.completeRead(qp, op)
	case opc.IsAtomic():
		n.completeAtomic(qp, op)
	}
	if !op.pkt.BTH.Opcode.IsWrite() && !op.pkt.BTH.Opcode.IsAtomic() {
		return
	}
	// A write/atomic committed: release any READ waiting on the barrier.
	qp.writeDone++
	if !n.rbusy {
		n.executeNext(false)
	}
}

func (n *NIC) completeWrite(qp *QP, op *pendingOp) {
	// Multi-packet WRITEs: first/only carry the RETH; middles/lasts
	// continue at the QP's running write cursor. We track the cursor on
	// the QP via the RETH of the first packet.
	if op.pkt.HasRETH {
		qp.writeVA = op.pkt.RETH.VA
		qp.writeKey = op.pkt.RETH.RKey
	}
	r := n.regions[qp.writeKey]
	if r == nil || !r.Contains(qp.writeVA, len(op.payload)) {
		n.Stats.AccessErrors++
		n.sendNak(qp, wire.AETHNakRemAcces)
		return
	}
	r.WriteAt(op.payload, qp.writeVA)
	qp.writeVA += uint64(len(op.payload))
	n.Stats.WriteBytes += int64(len(op.payload))
	if opc := op.pkt.BTH.Opcode; opc == wire.OpWriteOnly || opc == wire.OpWriteLast {
		n.Stats.ExecWrites++
		qp.msn = (qp.msn + 1) & verbs.PSNMask
		if op.pkt.BTH.AckReq {
			n.sendAck(qp, op.pkt.BTH.PSN)
		}
	}
}

func (n *NIC) completeRead(qp *QP, op *pendingOp) {
	r := n.regions[op.pkt.RETH.RKey]
	total := int(op.pkt.RETH.DMALen)
	if r == nil || !r.Contains(op.pkt.RETH.VA, total) {
		n.Stats.AccessErrors++
		n.sendNak(qp, wire.AETHNakRemAcces)
		return
	}
	n.Stats.ExecReads++
	n.Stats.ReadBytes += int64(total)
	qp.msn = (qp.msn + 1) & verbs.PSNMask
	// Segment into MTU-sized response packets. Response PSNs start at the
	// request's PSN (IB RC rule).
	pkts := (total + n.Cfg.MTU - 1) / n.Cfg.MTU
	if pkts < 1 {
		pkts = 1
	}
	for i := 0; i < pkts; i++ {
		lo := i * n.Cfg.MTU
		hi := lo + n.Cfg.MTU
		if hi > total {
			hi = total
		}
		var opc wire.Opcode
		switch {
		case pkts == 1:
			opc = wire.OpReadResponseOnly
		case i == 0:
			opc = wire.OpReadResponseFirst
		case i == pkts-1:
			opc = wire.OpReadResponseLast
		default:
			opc = wire.OpReadResponseMiddle
		}
		params := n.roceParams(qp, (op.pkt.BTH.PSN+uint32(i))&verbs.PSNMask)
		// The builder copies a contiguous payload: the region's own bytes
		// when the chunk sits inside one touched page, else a staged copy.
		payload := r.resident(int(op.pkt.RETH.VA-r.Base)+lo, hi-lo)
		if payload == nil {
			if len(n.readStage) < hi-lo {
				n.readStage = make([]byte, n.Cfg.MTU)
			}
			payload = n.readStage[:hi-lo]
			r.ReadAt(payload, op.pkt.RETH.VA+uint64(lo))
		}
		n.scheduleResponse(qp, wire.BuildReadResponseInto(wire.DefaultPool, &params, opc, qp.msn, payload))
	}
}

func (n *NIC) completeAtomic(qp *QP, op *pendingOp) {
	r := n.regions[op.pkt.AtomicETH.RKey]
	if r == nil || !r.Contains(op.pkt.AtomicETH.VA, 8) {
		n.Stats.AccessErrors++
		n.sendNak(qp, wire.AETHNakRemAcces)
		return
	}
	var word [8]byte
	va := op.pkt.AtomicETH.VA
	r.ReadAt(word[:], va)
	orig := beUint64(word[:])
	switch op.pkt.BTH.Opcode {
	case wire.OpFetchAdd:
		putBeUint64(word[:], orig+op.pkt.AtomicETH.SwapAdd)
		r.WriteAt(word[:], va)
	case wire.OpCompareSwap:
		if orig == op.pkt.AtomicETH.Compare {
			putBeUint64(word[:], op.pkt.AtomicETH.SwapAdd)
			r.WriteAt(word[:], va)
		}
	}
	n.Stats.ExecAtomics++
	qp.msn = (qp.msn + 1) & verbs.PSNMask
	qp.rememberAtomic(op.pkt.BTH.PSN, orig)
	params := n.roceParams(qp, op.pkt.BTH.PSN)
	n.scheduleResponse(qp, wire.BuildAtomicAckInto(wire.DefaultPool, &params, qp.msn, orig))
}

// roceParams returns response addressing by value so the params stay on the
// caller's stack (the builders only read through the pointer).
func (n *NIC) roceParams(qp *QP, psn uint32) wire.RoCEParams {
	return wire.RoCEParams{
		SrcMAC: n.MAC, DstMAC: qp.PeerMAC,
		SrcIP: n.IP, DstIP: qp.PeerIP,
		UDPSrcPort: udpEntropy(qp.Number),
		DestQP:     qp.PeerQPN, PSN: psn,
		Version: qp.Version,
	}
}

// sendAck acknowledges cumulatively through psn — the PSN of the request
// whose execution completed, never a merely-admitted one.
func (n *NIC) sendAck(qp *QP, psn uint32) {
	n.Stats.AcksSent++
	params := n.roceParams(qp, psn)
	n.scheduleResponse(qp, wire.BuildAckInto(wire.DefaultPool, &params, wire.AETHAck, qp.msn))
}

func (n *NIC) sendNak(qp *QP, syndrome uint8) {
	n.Stats.NaksSent++
	params := n.roceParams(qp, qp.ePSN)
	n.scheduleResponse(qp, wire.BuildAckInto(wire.DefaultPool, &params, syndrome, qp.msn))
}

func (n *NIC) scheduleResponse(qp *QP, frame []byte) {
	n.Stats.ResponsesSent++
	// ProcessingDelay models the NIC's response-path latency (pipelined:
	// it delays each response without occupying the execution engine).
	delay := n.Cfg.ProcessingDelay
	if f := n.SlowFactor(); f > 1 {
		delay = sim.Duration(float64(delay) * f)
	}
	n.engine.ScheduleCall(delay, nicSendResponse, n, frame, 0)
}

// nicSendResponse puts a response on the wire once its ProcessingDelay passed.
func nicSendResponse(recv any, frame []byte, _ int) {
	n := recv.(*NIC)
	if n.failed {
		wire.DefaultPool.Put(frame) // crashed mid-flight: never sent
		return
	}
	n.port.Send(frame)
}

// udpEntropy derives a stable RoCEv2 UDP source port from a QPN.
func udpEntropy(qpn uint32) uint16 { return uint16(0xC000 | qpn&0x3FFF) }

func beUint64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

func putBeUint64(b []byte, v uint64) {
	_ = b[7]
	b[0], b[1], b[2], b[3] = byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32)
	b[4], b[5], b[6], b[7] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}

// ReadCounter returns the big-endian uint64 stored at va in the region under
// rkey — a test/verification convenience mirroring what estimation software
// on the server would read.
func (n *NIC) ReadCounter(rkey uint32, va uint64) (uint64, error) {
	r := n.regions[rkey]
	if r == nil || !r.Contains(va, 8) {
		return 0, fmt.Errorf("rnic: no readable word at rkey=%#x va=%#x", rkey, va)
	}
	var word [8]byte
	r.ReadAt(word[:], va)
	return beUint64(word[:]), nil
}
