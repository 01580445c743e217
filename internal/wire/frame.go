package wire

import (
	"fmt"
	"hash/crc32"
)

// RoCEParams carries the per-channel addressing state a data plane needs to
// craft a RoCE packet: Ethernet/IP endpoints, the UDP source port used for
// ECMP entropy, and the destination queue pair.
type RoCEParams struct {
	SrcMAC, DstMAC MAC
	SrcIP, DstIP   IP4
	UDPSrcPort     uint16
	DestQP         uint32
	PSN            uint32
	AckReq         bool
	// Version selects the encapsulation: 0 / RoCEv2 = IPv4+UDP (default),
	// RoCEv1 = GRH directly over Ethernet (ethertype 0x8915).
	Version RoCEVersion
}

// roceHeaderLen returns the fixed Eth+IP+UDP+BTH prefix length.
const roceFixedLen = EthernetLen + IPv4Len + UDPLen + BTHLen

// RoCEWireLen returns the total frame length of a RoCEv2 packet with the
// given extension-header length and payload length (ICRC included, Ethernet
// framing overhead excluded).
func RoCEWireLen(extLen, payloadLen int) int {
	return roceFixedLen + extLen + payloadLen + ICRCLen
}

// roceV1FixedLen is the Eth+GRH+BTH prefix of a RoCEv1 packet.
const roceV1FixedLen = EthernetLen + GRHLen + BTHLen

// RoCEv1WireLen is RoCEWireLen for the v1 encapsulation.
func RoCEv1WireLen(extLen, payloadLen int) int {
	return roceV1FixedLen + extLen + payloadLen + ICRCLen
}

// roceLen returns the frame length of a RoCE packet in either
// encapsulation.
func roceLen(v RoCEVersion, extLen, payloadLen int) int {
	if v == RoCEv1 {
		return RoCEv1WireLen(extLen, payloadLen)
	}
	return RoCEWireLen(extLen, payloadLen)
}

// putRoCEPrefix writes the headers up to and including the BTH —
// Eth+IPv4+UDP (RoCEv2) or Eth+GRH (RoCEv1) — into frame, whose length must
// already be the full wire length. It returns the offset where extension
// headers (or the payload) continue. No allocation: all header structs stay
// on the caller's stack.
func putRoCEPrefix(frame []byte, p *RoCEParams, opcode Opcode) int {
	total := len(frame)
	var off int
	if p.Version == RoCEv1 {
		eth := Ethernet{Dst: p.DstMAC, Src: p.SrcMAC, EtherType: EtherTypeRoCEv1}
		off = eth.Put(frame)
		grh := GRH{
			TClass:     46 << 2,
			PayLen:     uint16(total - EthernetLen - GRHLen),
			NextHeader: GRHNextHeaderIBA,
			HopLimit:   64,
			SGID:       V4MappedGID(p.SrcIP),
			DGID:       V4MappedGID(p.DstIP),
		}
		off += grh.Put(frame[off:])
	} else {
		eth := Ethernet{Dst: p.DstMAC, Src: p.SrcMAC, EtherType: EtherTypeIPv4}
		off = eth.Put(frame)
		ip := IPv4{
			DSCP:     46, // expedited forwarding: RDMA traffic is prioritized
			TotalLen: uint16(total - EthernetLen),
			DontFrag: true,
			TTL:      64,
			Protocol: ProtoUDP,
			Src:      p.SrcIP,
			Dst:      p.DstIP,
		}
		off += ip.Put(frame[off:])
		udp := UDP{
			SrcPort: p.UDPSrcPort,
			DstPort: UDPPortRoCEv2,
			Length:  uint16(total - EthernetLen - IPv4Len),
		}
		off += udp.Put(frame[off:])
	}
	bth := BTH{
		Opcode: opcode,
		PKey:   DefaultPKey,
		DestQP: p.DestQP,
		AckReq: p.AckReq,
		PSN:    p.PSN & 0xFFFFFF,
	}
	return off + bth.Put(frame[off:])
}

// finishRoCE copies the payload at off and seals the trailing ICRC.
func finishRoCE(frame []byte, off int, payload []byte) {
	copy(frame[off:], payload)
	putICRC(frame)
}

// BuildWriteOnlyInto crafts an RDMA WRITE Only request carrying payload to
// remote address va under rkey, drawing the frame buffer from pool (nil =
// plain allocation). The caller owns the returned frame; handing it to the
// fabric (Send/Inject/Emit) transfers ownership.
func BuildWriteOnlyInto(pool *Pool, p *RoCEParams, va uint64, rkey uint32, payload []byte) []byte {
	frame := pool.Get(roceLen(p.Version, RETHLen, len(payload)))
	off := putRoCEPrefix(frame, p, OpWriteOnly)
	reth := RETH{VA: va, RKey: rkey, DMALen: uint32(len(payload))}
	off += reth.Put(frame[off:])
	finishRoCE(frame, off, payload)
	return frame
}

// BuildWriteOnly is BuildWriteOnlyInto drawing from DefaultPool; the frame must go back to it (Put or fabric handoff).
func BuildWriteOnly(p *RoCEParams, va uint64, rkey uint32, payload []byte) []byte {
	return BuildWriteOnlyInto(DefaultPool, p, va, rkey, payload)
}

// BuildWriteFirstInto crafts the first packet of a multi-packet WRITE of
// dmaLen total bytes.
func BuildWriteFirstInto(pool *Pool, p *RoCEParams, va uint64, rkey uint32, dmaLen uint32, payload []byte) []byte {
	frame := pool.Get(roceLen(p.Version, RETHLen, len(payload)))
	off := putRoCEPrefix(frame, p, OpWriteFirst)
	reth := RETH{VA: va, RKey: rkey, DMALen: dmaLen}
	off += reth.Put(frame[off:])
	finishRoCE(frame, off, payload)
	return frame
}

// BuildWriteMiddleInto crafts a middle packet of a multi-packet WRITE.
func BuildWriteMiddleInto(pool *Pool, p *RoCEParams, payload []byte) []byte {
	frame := pool.Get(roceLen(p.Version, 0, len(payload)))
	off := putRoCEPrefix(frame, p, OpWriteMiddle)
	finishRoCE(frame, off, payload)
	return frame
}

// BuildWriteLastInto crafts the last packet of a multi-packet WRITE.
func BuildWriteLastInto(pool *Pool, p *RoCEParams, payload []byte) []byte {
	frame := pool.Get(roceLen(p.Version, 0, len(payload)))
	off := putRoCEPrefix(frame, p, OpWriteLast)
	finishRoCE(frame, off, payload)
	return frame
}

// BuildReadRequestInto crafts an RDMA READ request for dmaLen bytes at va.
func BuildReadRequestInto(pool *Pool, p *RoCEParams, va uint64, rkey uint32, dmaLen uint32) []byte {
	frame := pool.Get(roceLen(p.Version, RETHLen, 0))
	off := putRoCEPrefix(frame, p, OpReadRequest)
	reth := RETH{VA: va, RKey: rkey, DMALen: dmaLen}
	off += reth.Put(frame[off:])
	finishRoCE(frame, off, nil)
	return frame
}

// BuildReadRequest is BuildReadRequestInto drawing from DefaultPool; the frame must go back to it (Put or fabric handoff).
func BuildReadRequest(p *RoCEParams, va uint64, rkey uint32, dmaLen uint32) []byte {
	return BuildReadRequestInto(DefaultPool, p, va, rkey, dmaLen)
}

// BuildFetchAddInto crafts an atomic Fetch-and-Add request adding delta to
// the 8-byte word at va.
func BuildFetchAddInto(pool *Pool, p *RoCEParams, va uint64, rkey uint32, delta uint64) []byte {
	frame := pool.Get(roceLen(p.Version, AtomicETHLen, 0))
	off := putRoCEPrefix(frame, p, OpFetchAdd)
	ae := AtomicETH{VA: va, RKey: rkey, SwapAdd: delta}
	off += ae.Put(frame[off:])
	finishRoCE(frame, off, nil)
	return frame
}

// BuildFetchAdd is BuildFetchAddInto drawing from DefaultPool; the frame must go back to it (Put or fabric handoff).
func BuildFetchAdd(p *RoCEParams, va uint64, rkey uint32, delta uint64) []byte {
	return BuildFetchAddInto(DefaultPool, p, va, rkey, delta)
}

// BuildCompareSwapInto crafts an atomic Compare-and-Swap request.
func BuildCompareSwapInto(pool *Pool, p *RoCEParams, va uint64, rkey uint32, compare, swap uint64) []byte {
	frame := pool.Get(roceLen(p.Version, AtomicETHLen, 0))
	off := putRoCEPrefix(frame, p, OpCompareSwap)
	ae := AtomicETH{VA: va, RKey: rkey, SwapAdd: swap, Compare: compare}
	off += ae.Put(frame[off:])
	finishRoCE(frame, off, nil)
	return frame
}

// BuildCompareSwap is BuildCompareSwapInto drawing from DefaultPool; the frame must go back to it (Put or fabric handoff).
func BuildCompareSwap(p *RoCEParams, va uint64, rkey uint32, compare, swap uint64) []byte {
	return BuildCompareSwapInto(DefaultPool, p, va, rkey, compare, swap)
}

// BuildReadResponseInto crafts a READ response packet of the given flavour
// (Only/First/Middle/Last). First/Only/Last carry an AETH.
func BuildReadResponseInto(pool *Pool, p *RoCEParams, opcode Opcode, msn uint32, payload []byte) []byte {
	switch opcode {
	case OpReadResponseOnly, OpReadResponseFirst, OpReadResponseLast:
		frame := pool.Get(roceLen(p.Version, AETHLen, len(payload)))
		off := putRoCEPrefix(frame, p, opcode)
		ae := AETH{Syndrome: AETHAck, MSN: msn & 0xFFFFFF}
		off += ae.Put(frame[off:])
		finishRoCE(frame, off, payload)
		return frame
	case OpReadResponseMiddle:
		frame := pool.Get(roceLen(p.Version, 0, len(payload)))
		off := putRoCEPrefix(frame, p, opcode)
		finishRoCE(frame, off, payload)
		return frame
	default:
		panic(fmt.Sprintf("wire: %v is not a read response opcode", opcode))
	}
}

// BuildReadResponse is BuildReadResponseInto drawing from DefaultPool; the frame must go back to it (Put or fabric handoff).
func BuildReadResponse(p *RoCEParams, opcode Opcode, msn uint32, payload []byte) []byte {
	return BuildReadResponseInto(DefaultPool, p, opcode, msn, payload)
}

// BuildAckInto crafts an ACK (or NAK, per syndrome) packet.
func BuildAckInto(pool *Pool, p *RoCEParams, syndrome uint8, msn uint32) []byte {
	frame := pool.Get(roceLen(p.Version, AETHLen, 0))
	off := putRoCEPrefix(frame, p, OpAcknowledge)
	ae := AETH{Syndrome: syndrome, MSN: msn & 0xFFFFFF}
	off += ae.Put(frame[off:])
	finishRoCE(frame, off, nil)
	return frame
}

// BuildAck is BuildAckInto drawing from DefaultPool; the frame must go back to it (Put or fabric handoff).
func BuildAck(p *RoCEParams, syndrome uint8, msn uint32) []byte {
	return BuildAckInto(DefaultPool, p, syndrome, msn)
}

// BuildAtomicAckInto crafts an atomic acknowledge carrying the original
// value.
func BuildAtomicAckInto(pool *Pool, p *RoCEParams, msn uint32, orig uint64) []byte {
	frame := pool.Get(roceLen(p.Version, AETHLen+AtomicAckETHLen, 0))
	off := putRoCEPrefix(frame, p, OpAtomicAcknowledge)
	ae := AETH{Syndrome: AETHAck, MSN: msn & 0xFFFFFF}
	off += ae.Put(frame[off:])
	aa := AtomicAckETH{OrigData: orig}
	off += aa.Put(frame[off:])
	finishRoCE(frame, off, nil)
	return frame
}

// BuildAtomicAck is BuildAtomicAckInto drawing from DefaultPool; the frame must go back to it (Put or fabric handoff).
func BuildAtomicAck(p *RoCEParams, msn uint32, orig uint64) []byte {
	return BuildAtomicAckInto(DefaultPool, p, msn, orig)
}

// BuildDataFrameInto assembles a plain (non-RoCE) Ethernet/IPv4/UDP frame
// of exactly frameLen bytes (padding the payload as needed), as emitted by
// the traffic generators standing in for raw_ethernet_bw and NetPIPE.
// frameLen excludes framing overhead. The payload occupies the space after
// the UDP header.
func BuildDataFrameInto(pool *Pool, srcMAC, dstMAC MAC, srcIP, dstIP IP4, srcPort, dstPort uint16, frameLen int, payload []byte) []byte {
	if frameLen < MinFrameSize {
		frameLen = MinFrameSize
	}
	if min := EthernetLen + IPv4Len + UDPLen + len(payload); frameLen < min {
		frameLen = min
	}
	frame := pool.Get(frameLen)
	eth := Ethernet{Dst: dstMAC, Src: srcMAC, EtherType: EtherTypeIPv4}
	off := eth.Put(frame)
	ip := IPv4{
		TotalLen: uint16(frameLen - EthernetLen),
		TTL:      64,
		Protocol: ProtoUDP,
		Src:      srcIP,
		Dst:      dstIP,
	}
	off += ip.Put(frame[off:])
	udp := UDP{
		SrcPort: srcPort,
		DstPort: dstPort,
		Length:  uint16(frameLen - EthernetLen - IPv4Len),
	}
	off += udp.Put(frame[off:])
	off += copy(frame[off:], payload)
	// Pooled buffers carry stale bytes; the padding must be zero.
	clear(frame[off:])
	return frame
}

// BuildDataFrame is BuildDataFrameInto drawing from DefaultPool; the frame must go back to it (Put or fabric handoff).
func BuildDataFrame(srcMAC, dstMAC MAC, srcIP, dstIP IP4, srcPort, dstPort uint16, frameLen int, payload []byte) []byte {
	return BuildDataFrameInto(DefaultPool, srcMAC, dstMAC, srcIP, dstIP, srcPort, dstPort, frameLen, payload)
}

// Packet is a fully parsed frame. Decode methods fill it in place without
// copying payload bytes (gopacket's preallocated DecodingLayer pattern), so
// one Packet per pipeline can parse millions of frames with zero allocation.
type Packet struct {
	Eth Ethernet

	HasIPv4 bool
	IP      IPv4

	HasUDP bool
	UDP    UDP

	// HasGRH marks a RoCEv1 frame (GRH instead of IPv4+UDP).
	HasGRH bool
	GRH    GRH

	// RoCE transport headers; IsRoCE is true for RoCEv2 (UDP dst port
	// 4791) and RoCEv1 (ethertype 0x8915) frames alike.
	IsRoCE       bool
	BTH          BTH
	HasRETH      bool
	RETH         RETH
	HasAETH      bool
	AETH         AETH
	HasAtomicETH bool
	AtomicETH    AtomicETH
	HasAtomicAck bool
	AtomicAck    AtomicAckETH
	ICRCOK       bool

	// Payload is the innermost payload: for RoCE packets the RDMA payload
	// (after extension headers, before the ICRC); for UDP the datagram
	// payload; otherwise the bytes after the Ethernet header.
	Payload []byte
}

// Reset clears the presence flags so the struct can be reused.
func (p *Packet) Reset() {
	p.HasIPv4, p.HasUDP, p.IsRoCE, p.HasGRH = false, false, false, false
	p.HasRETH, p.HasAETH, p.HasAtomicETH, p.HasAtomicAck = false, false, false, false
	p.ICRCOK = false
	p.Payload = nil
}

// DecodeFromBytes parses frame into p. RoCE transport parsing is attempted
// whenever the UDP destination port is 4791; a malformed RoCE layer is an
// error (the switch drops such frames), while a plain non-RoCE frame is fine.
func (p *Packet) DecodeFromBytes(frame []byte) error {
	p.Reset()
	if err := p.Eth.DecodeFromBytes(frame); err != nil {
		return err
	}
	rest := frame[EthernetLen:]
	if p.Eth.EtherType == EtherTypeRoCEv1 {
		if err := p.GRH.DecodeFromBytes(rest); err != nil {
			return err
		}
		p.HasGRH = true
		glen := int(p.GRH.PayLen) + GRHLen
		if glen > len(rest) {
			return tooShort("grh payload length", glen, len(rest))
		}
		return p.decodeRoCE(frame, rest[GRHLen:glen])
	}
	if p.Eth.EtherType != EtherTypeIPv4 {
		p.Payload = rest
		return nil
	}
	if err := p.IP.DecodeFromBytes(rest); err != nil {
		return err
	}
	p.HasIPv4 = true
	// Trust TotalLen to strip link-layer padding — but not blindly: a
	// TotalLen shorter than the header itself is malformed, not padding.
	ipLen := int(p.IP.TotalLen)
	if ipLen < IPv4Len || ipLen > len(rest) {
		return tooShort("ipv4 total length", ipLen, len(rest))
	}
	rest = rest[IPv4Len:ipLen]
	if p.IP.Protocol != ProtoUDP {
		p.Payload = rest
		return nil
	}
	if err := p.UDP.DecodeFromBytes(rest); err != nil {
		return err
	}
	p.HasUDP = true
	rest = rest[UDPLen:]
	if p.UDP.DstPort != UDPPortRoCEv2 {
		p.Payload = rest
		return nil
	}
	return p.decodeRoCE(frame, rest)
}

func (p *Packet) decodeRoCE(frame, rest []byte) error {
	if err := p.BTH.DecodeFromBytes(rest); err != nil {
		return err
	}
	p.IsRoCE = true
	rest = rest[BTHLen:]
	if len(rest) < ICRCLen {
		return tooShort("icrc", ICRCLen, len(rest))
	}
	switch op := p.BTH.Opcode; {
	case op.HasRETH():
		if err := p.RETH.DecodeFromBytes(rest); err != nil {
			return err
		}
		p.HasRETH = true
		rest = rest[RETHLen:]
	case op.IsAtomic():
		if err := p.AtomicETH.DecodeFromBytes(rest); err != nil {
			return err
		}
		p.HasAtomicETH = true
		rest = rest[AtomicETHLen:]
	case op == OpAcknowledge,
		op == OpReadResponseOnly, op == OpReadResponseFirst, op == OpReadResponseLast:
		if err := p.AETH.DecodeFromBytes(rest); err != nil {
			return err
		}
		p.HasAETH = true
		rest = rest[AETHLen:]
	case op == OpAtomicAcknowledge:
		if err := p.AETH.DecodeFromBytes(rest); err != nil {
			return err
		}
		p.HasAETH = true
		rest = rest[AETHLen:]
		if err := p.AtomicAck.DecodeFromBytes(rest); err != nil {
			return err
		}
		p.HasAtomicAck = true
		rest = rest[AtomicAckETHLen:]
	}
	if len(rest) < ICRCLen {
		return tooShort("icrc", ICRCLen, len(rest))
	}
	p.Payload = rest[:len(rest)-ICRCLen]
	p.ICRCOK = verifyICRC(frame)
	return nil
}

// ---- ICRC ----
//
// RoCE packets end with a 32-bit invariant CRC computed over the packet with
// per-hop-variant fields masked. We use the Ethernet CRC-32 polynomial (as
// the spec does) over the frame from the IP (v2) or GRH (v1) header onward,
// masking the fields the spec masks: IP TOS/TTL/checksum, the UDP checksum
// and the BTH reserved byte (v2), or the GRH traffic class and hop limit and
// the BTH reserved byte (v1). This is a faithful simplification: both ends
// of the simulation compute it the same way, so corruption and truncation
// are detectable, which is what the primitives rely on.
//
// The mask is applied in place: computeICRC saves the few variant bytes of
// the caller's frame, overwrites them with their masked values, runs one
// crc32.ChecksumIEEE over the whole body and restores them. One call over
// the body is what lets the slicing-8/CLMUL kernels engage; a masked header
// copy on the stack would escape to the heap through crc32, so the frame
// itself is the scratch. That is safe because a frame is owned by the event
// that handles it and the engine is single-threaded: nothing else observes
// the bytes between the mask and the restore.

// Body offsets (from the IP or GRH header) of the bytes the ICRC masks.
const (
	icrcIPTOS   = 1
	icrcIPTTL   = 8
	icrcIPCsum  = 10          // two bytes
	icrcUDPCsum = IPv4Len + 6 // two bytes
	icrcBTHRsvd = IPv4Len + UDPLen + 4
	icrcV1Hop   = 7
	icrcV1Rsvd  = GRHLen + 4
)

// computeICRC masks the frame's variant bytes in place, checksums the body
// in one pass, and restores the bytes (see the block comment above).
func computeICRC(frame []byte) (uint32, bool) {
	v1 := IsRoCEv1Frame(frame)
	min := roceFixedLen
	if v1 {
		min = roceV1FixedLen
	}
	if len(frame) < min+ICRCLen {
		return 0, false
	}
	b := frame[EthernetLen : len(frame)-ICRCLen]
	if v1 {
		// Traffic class straddles the first two GRH bytes: OR-mask its bits.
		tc0, tc1, hop, rsv := b[0], b[1], b[icrcV1Hop], b[icrcV1Rsvd]
		b[0], b[1], b[icrcV1Hop], b[icrcV1Rsvd] = tc0|0x0F, tc1|0xF0, 0xFF, 0xFF
		crc := crc32.ChecksumIEEE(b)
		b[0], b[1], b[icrcV1Hop], b[icrcV1Rsvd] = tc0, tc1, hop, rsv
		return crc, true
	}
	tos, ttl, ipc0, ipc1 := b[icrcIPTOS], b[icrcIPTTL], b[icrcIPCsum], b[icrcIPCsum+1]
	udc0, udc1, rsv := b[icrcUDPCsum], b[icrcUDPCsum+1], b[icrcBTHRsvd]
	b[icrcIPTOS], b[icrcIPTTL], b[icrcIPCsum], b[icrcIPCsum+1] = 0xFF, 0xFF, 0xFF, 0xFF
	b[icrcUDPCsum], b[icrcUDPCsum+1], b[icrcBTHRsvd] = 0xFF, 0xFF, 0xFF
	crc := crc32.ChecksumIEEE(b)
	b[icrcIPTOS], b[icrcIPTTL], b[icrcIPCsum], b[icrcIPCsum+1] = tos, ttl, ipc0, ipc1
	b[icrcUDPCsum], b[icrcUDPCsum+1], b[icrcBTHRsvd] = udc0, udc1, rsv
	return crc, true
}

// IsRoCEv1Frame cheaply tests the ethertype.
func IsRoCEv1Frame(frame []byte) bool {
	return len(frame) >= EthernetLen && frame[12] == 0x89 && frame[13] == 0x15
}

// putICRC computes and stores the ICRC in the last 4 bytes of frame.
func putICRC(frame []byte) {
	crc, ok := computeICRC(frame)
	if !ok {
		panic("wire: frame too short for ICRC")
	}
	// Transmitted least-significant byte first, like the Ethernet FCS.
	frame[len(frame)-4] = byte(crc)
	frame[len(frame)-3] = byte(crc >> 8)
	frame[len(frame)-2] = byte(crc >> 16)
	frame[len(frame)-1] = byte(crc >> 24)
}

// verifyICRC recomputes the ICRC of frame and compares it to the trailer.
func verifyICRC(frame []byte) bool {
	crc, ok := computeICRC(frame)
	if !ok {
		return false
	}
	n := len(frame)
	got := uint32(frame[n-4]) | uint32(frame[n-3])<<8 | uint32(frame[n-2])<<16 | uint32(frame[n-1])<<24
	return crc == got
}
