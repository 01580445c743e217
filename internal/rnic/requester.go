package rnic

import (
	"fmt"

	"gem/internal/core/verbs"
	"gem/internal/fifo"
	"gem/internal/sim"
	"gem/internal/wire"
)

// Requester is the host-side verbs engine: it turns posted work requests
// into RoCEv2 packets, paces them under a window, and completes them when
// ACKs / READ responses / atomic ACKs return. It exists to run the paper's
// *baseline*: native server-to-server RDMA (§5, "As a baseline, we test
// native server-to-server RDMA WRITE and READ throughput").
//
// Loss recovery is go-back-N, the scheme RC RNICs of the CX-3 era used.
type Requester struct {
	nic *NIC

	localQPN uint32
	peerMAC  wire.MAC
	peerIP   wire.IP4
	peerQPN  uint32

	sPSN     uint32 // next PSN to assign
	ackedPSN uint32 // cumulative: all PSNs before this are acknowledged
	window   int    // max unacknowledged packets in flight

	pending  fifo.Queue[*workRequest] // posted, not fully transmitted
	inflight []*sentPacket            // transmitted, not acknowledged

	timeout sim.Duration
	timer   *sim.Event

	// Completions and Retransmits are observable for the harnesses.
	Completions int64
	Retransmits int64
}

type workRequest struct {
	opcode   wire.Opcode // WriteOnly / ReadRequest / FetchAdd (class)
	va       uint64
	rkey     uint32
	data     []byte // write payload
	length   int    // read length
	add      uint64 // fetch-add operand / CAS swap value
	compare  uint64 // CAS compare value
	firstPSN uint32
	lastPSN  uint32 // last PSN of the message (incl. read response span)

	// READ reassembly.
	got      int
	buf      []byte
	done     bool
	onWrite  func()
	onRead   func([]byte)
	onAtomic func(orig uint64)
}

// sentPacket retains the master copy of a transmitted packet for go-back-N
// retransmission. The master never enters the fabric: every (re)send puts a
// pooled copy on the wire, and the master is recycled when the packet
// retires (ack/completion).
type sentPacket struct {
	psn   uint32
	frame []byte
	wr    *workRequest
}

// NewRequester wires a requester engine to the NIC, targeting the given
// peer queue pair. window is the packet window (0 = 256). Only one
// requester per NIC is supported (enough for the baselines).
func (n *NIC) NewRequester(peerMAC wire.MAC, peerIP wire.IP4, peerQPN uint32, window int) *Requester {
	if window <= 0 {
		window = 256
	}
	r := &Requester{
		nic:      n,
		localQPN: n.nextQPN,
		peerMAC:  peerMAC, peerIP: peerIP, peerQPN: peerQPN,
		window:  window,
		timeout: 100 * sim.Microsecond,
	}
	n.nextQPN++
	n.req = r
	return r
}

// PostWrite posts an RDMA WRITE of data to va under rkey; onDone (optional)
// fires when the write is acknowledged.
func (r *Requester) PostWrite(va uint64, rkey uint32, data []byte, onDone func()) {
	r.post(&workRequest{opcode: wire.OpWriteOnly, va: va, rkey: rkey,
		data: append([]byte(nil), data...), onWrite: onDone}) //gem:alloc-ok control-plane post copies caller data
}

// PostRead posts an RDMA READ of length bytes from va under rkey; onDone
// receives the data.
func (r *Requester) PostRead(va uint64, rkey uint32, length int, onDone func([]byte)) {
	r.post(&workRequest{opcode: wire.OpReadRequest, va: va, rkey: rkey,
		length: length, onRead: onDone})
}

// PostFetchAdd posts an atomic Fetch-and-Add; onDone receives the original
// value of the remote word.
func (r *Requester) PostFetchAdd(va uint64, rkey uint32, add uint64, onDone func(uint64)) {
	r.post(&workRequest{opcode: wire.OpFetchAdd, va: va, rkey: rkey,
		add: add, onAtomic: onDone})
}

// PostCompareSwap posts an atomic Compare-and-Swap; onDone receives the
// original value (the swap happened iff it equals compare).
func (r *Requester) PostCompareSwap(va uint64, rkey uint32, compare, swap uint64, onDone func(uint64)) {
	r.post(&workRequest{opcode: wire.OpCompareSwap, va: va, rkey: rkey,
		compare: compare, add: swap, onAtomic: onDone})
}

func (r *Requester) post(wr *workRequest) {
	r.pending.Push(wr)
	r.pump()
}

// OutstandingPackets reports the current in-flight packet count.
func (r *Requester) OutstandingPackets() int { return len(r.inflight) }

// pump transmits pending work while window space remains.
func (r *Requester) pump() {
	for r.pending.Len() > 0 && len(r.inflight) < r.window {
		if !r.transmit(r.pending.Peek()) {
			return
		}
		r.pending.Pop()
	}
}

// transmit emits all packets of wr (WRITEs may be multi-packet). Returns
// false if the window cannot take the whole message yet.
func (r *Requester) transmit(wr *workRequest) bool {
	mtu := r.nic.Cfg.MTU
	switch wr.opcode {
	case wire.OpWriteOnly:
		pkts := (len(wr.data) + mtu - 1) / mtu
		if pkts < 1 {
			pkts = 1
		}
		if len(r.inflight)+pkts > r.window {
			return false
		}
		wr.firstPSN = r.sPSN
		wr.lastPSN = (r.sPSN + uint32(pkts) - 1) & verbs.PSNMask
		for i := 0; i < pkts; i++ {
			lo := i * mtu
			hi := lo + mtu
			if hi > len(wr.data) {
				hi = len(wr.data)
			}
			chunk := wr.data[lo:hi]
			p := r.params((r.sPSN+uint32(i))&verbs.PSNMask, i == pkts-1)
			var frame []byte
			switch {
			case pkts == 1:
				frame = wire.BuildWriteOnlyInto(wire.DefaultPool, &p, wr.va, wr.rkey, chunk)
			case i == 0:
				frame = wire.BuildWriteFirstInto(wire.DefaultPool, &p, wr.va, wr.rkey, uint32(len(wr.data)), chunk)
			case i == pkts-1:
				frame = wire.BuildWriteLastInto(wire.DefaultPool, &p, chunk)
			default:
				frame = wire.BuildWriteMiddleInto(wire.DefaultPool, &p, chunk)
			}
			r.send((r.sPSN+uint32(i))&verbs.PSNMask, frame, wr)
		}
		r.sPSN = (r.sPSN + uint32(pkts)) & verbs.PSNMask
	case wire.OpReadRequest:
		pkts := (wr.length + mtu - 1) / mtu
		if pkts < 1 {
			pkts = 1
		}
		wr.firstPSN = r.sPSN
		wr.lastPSN = (r.sPSN + uint32(pkts) - 1) & verbs.PSNMask
		wr.buf = make([]byte, wr.length)
		p := r.params(r.sPSN, true)
		frame := wire.BuildReadRequestInto(wire.DefaultPool, &p, wr.va, wr.rkey, uint32(wr.length))
		r.send(r.sPSN, frame, wr)
		r.sPSN = (r.sPSN + uint32(pkts)) & verbs.PSNMask
	case wire.OpFetchAdd, wire.OpCompareSwap:
		wr.firstPSN = r.sPSN
		wr.lastPSN = r.sPSN
		p := r.params(r.sPSN, true)
		var frame []byte
		if wr.opcode == wire.OpFetchAdd {
			frame = wire.BuildFetchAddInto(wire.DefaultPool, &p, wr.va, wr.rkey, wr.add)
		} else {
			frame = wire.BuildCompareSwapInto(wire.DefaultPool, &p, wr.va, wr.rkey, wr.compare, wr.add)
		}
		r.send(r.sPSN, frame, wr)
		r.sPSN = (r.sPSN + 1) & verbs.PSNMask
	default:
		panic(fmt.Sprintf("rnic: unsupported requester opcode %v", wr.opcode))
	}
	return true
}

func (r *Requester) params(psn uint32, ackReq bool) wire.RoCEParams {
	return wire.RoCEParams{
		SrcMAC: r.nic.MAC, DstMAC: r.peerMAC,
		SrcIP: r.nic.IP, DstIP: r.peerIP,
		UDPSrcPort: udpEntropy(r.localQPN),
		DestQP:     r.peerQPN, PSN: psn, AckReq: ackReq,
	}
}

// send stores frame as the in-flight master for go-back-N and puts a pooled
// copy on the wire; the requester owns the master until the PSN retires.
//
//gem:owns
func (r *Requester) send(psn uint32, frame []byte, wr *workRequest) {
	r.inflight = append(r.inflight, &sentPacket{psn: psn, frame: frame, wr: wr})
	r.sendCopy(frame)
	r.armTimer()
}

// sendCopy transmits a pooled copy of a retained master frame: the fabric
// owns (and recycles) what it is handed, so the master must never be sent.
func (r *Requester) sendCopy(frame []byte) {
	c := wire.DefaultPool.Get(len(frame))
	copy(c, frame)
	r.nic.port.Send(c)
}

func (r *Requester) armTimer() {
	if r.timer != nil {
		r.nic.engine.Cancel(r.timer)
	}
	if len(r.inflight) == 0 {
		r.timer = nil
		return
	}
	r.timer = r.nic.engine.ScheduleCall(r.timeout, requesterTimeout, r, nil, 0)
}

func requesterTimeout(recv any, _ []byte, _ int) { recv.(*Requester).retransmit() }

// retransmit implements go-back-N: resend every unacknowledged packet.
func (r *Requester) retransmit() {
	r.timer = nil
	for _, sp := range r.inflight {
		r.Retransmits++
		r.sendCopy(sp.frame)
	}
	r.armTimer()
}

// handleResponse consumes ACK / NAK / READ response / atomic ACK packets.
func (r *Requester) handleResponse(pkt *wire.Packet) {
	switch op := pkt.BTH.Opcode; {
	case op == wire.OpAcknowledge:
		if pkt.AETH.IsNak() {
			r.retransmit()
			return
		}
		r.ackThrough(pkt.BTH.PSN)
	case op.IsReadResponse():
		r.handleReadResponse(pkt)
	case op == wire.OpAtomicAcknowledge:
		r.handleAtomicAck(pkt)
	}
	r.pump()
	r.armTimer()
}

// ackThrough completes every in-flight WRITE packet with PSN <= acked
// (24-bit circular compare). READ and atomic requests are deliberately NOT
// retired by a cumulative ACK: the ACK proves they executed, but their
// response data may have been lost on the way back, and the requester must
// keep them armed for timeout retransmission until the response arrives.
func (r *Requester) ackThrough(acked uint32) {
	keep := r.inflight[:0]
	for _, sp := range r.inflight {
		if !psnAfter(sp.psn, acked) && sp.wr.opcode == wire.OpWriteOnly {
			if sp.psn == sp.wr.lastPSN && !sp.wr.done {
				sp.wr.done = true
				r.Completions++
				if sp.wr.onWrite != nil {
					sp.wr.onWrite()
				}
			}
			wire.DefaultPool.Put(sp.frame) // retired: master no longer needed
			continue
		}
		keep = append(keep, sp)
	}
	clearTail(r.inflight[len(keep):])
	r.inflight = keep
}

// clearTail nils the filtered-out tail slots so retired packets are not
// pinned by the backing array.
func clearTail(tail []*sentPacket) {
	for i := range tail {
		tail[i] = nil
	}
}

func (r *Requester) handleReadResponse(pkt *wire.Packet) {
	for _, sp := range r.inflight {
		wr := sp.wr
		if wr.opcode != wire.OpReadRequest || wr.done {
			continue
		}
		span := (wr.lastPSN - wr.firstPSN) & verbs.PSNMask
		off := (pkt.BTH.PSN - wr.firstPSN) & verbs.PSNMask
		if off > span {
			continue
		}
		lo := int(off) * r.nic.Cfg.MTU
		n := copy(wr.buf[lo:], pkt.Payload)
		wr.got += n
		if uint32(pkt.BTH.PSN) == wr.lastPSN && wr.got >= wr.length {
			wr.done = true
			r.Completions++
			r.dropInflight(wr)
			// A completed READ also acknowledges everything before it.
			r.ackThrough(wr.lastPSN)
			if wr.onRead != nil {
				wr.onRead(wr.buf)
			}
		}
		return
	}
}

func (r *Requester) handleAtomicAck(pkt *wire.Packet) {
	for _, sp := range r.inflight {
		wr := sp.wr
		if !wr.opcode.IsAtomic() || wr.done || sp.psn != pkt.BTH.PSN {
			continue
		}
		wr.done = true
		r.Completions++
		r.dropInflight(wr)
		r.ackThrough(wr.lastPSN)
		if wr.onAtomic != nil {
			wr.onAtomic(pkt.AtomicAck.OrigData)
		}
		return
	}
}

func (r *Requester) dropInflight(wr *workRequest) {
	keep := r.inflight[:0]
	for _, sp := range r.inflight {
		if sp.wr != wr {
			keep = append(keep, sp)
		} else {
			wire.DefaultPool.Put(sp.frame) // retired: master no longer needed
		}
	}
	clearTail(r.inflight[len(keep):])
	r.inflight = keep
}
