package wire

import (
	"bytes"
	"testing"
	"testing/quick"
)

func testParams() *RoCEParams {
	return &RoCEParams{
		SrcMAC: MACFromUint64(0x10), DstMAC: MACFromUint64(0x20),
		SrcIP: IP4{10, 0, 0, 1}, DstIP: IP4{10, 0, 0, 2},
		UDPSrcPort: 49152, DestQP: 0x000011, PSN: 100, AckReq: true,
	}
}

func TestBuildWriteOnlyParses(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 256)
	frame := BuildWriteOnlyInto(DefaultPool, testParams(), 0x4000, 0x1234, payload)

	if got, want := len(frame), RoCEWireLen(RETHLen, 256); got != want {
		t.Fatalf("frame len = %d, want %d", got, want)
	}
	var p Packet
	if err := p.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	if !p.IsRoCE || !p.HasRETH {
		t.Fatalf("parse flags wrong: %+v", p)
	}
	if p.BTH.Opcode != OpWriteOnly || p.BTH.DestQP != 0x11 || p.BTH.PSN != 100 || !p.BTH.AckReq {
		t.Fatalf("BTH = %+v", p.BTH)
	}
	if p.RETH.VA != 0x4000 || p.RETH.RKey != 0x1234 || p.RETH.DMALen != 256 {
		t.Fatalf("RETH = %+v", p.RETH)
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Fatal("payload mismatch")
	}
	if !p.ICRCOK {
		t.Fatal("ICRC did not verify")
	}
	if p.UDP.DstPort != UDPPortRoCEv2 {
		t.Fatalf("udp dst port = %d", p.UDP.DstPort)
	}
}

func TestBuildReadRequestParses(t *testing.T) {
	frame := BuildReadRequest(testParams(), 0x8000, 0x55, 2048)
	var p Packet
	if err := p.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	if p.BTH.Opcode != OpReadRequest || !p.HasRETH || p.RETH.DMALen != 2048 {
		t.Fatalf("parse = %+v", p)
	}
	if len(p.Payload) != 0 {
		t.Fatalf("read request carries %d payload bytes", len(p.Payload))
	}
}

func TestBuildFetchAddParses(t *testing.T) {
	frame := BuildFetchAdd(testParams(), 0x100, 9, 7)
	var p Packet
	if err := p.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	if p.BTH.Opcode != OpFetchAdd || !p.HasAtomicETH {
		t.Fatalf("parse = %+v", p)
	}
	if p.AtomicETH.VA != 0x100 || p.AtomicETH.RKey != 9 || p.AtomicETH.SwapAdd != 7 {
		t.Fatalf("AtomicETH = %+v", p.AtomicETH)
	}
	// Paper §4: FAA request frame = Eth + 40B (IP/UDP/BTH) + 28B AtomicETH + ICRC.
	if got, want := len(frame), EthernetLen+40+28+ICRCLen; got != want {
		t.Fatalf("FAA frame = %d bytes, want %d", got, want)
	}
}

func TestBuildCompareSwapParses(t *testing.T) {
	frame := BuildCompareSwapInto(DefaultPool, testParams(), 0x100, 9, 11, 22)
	var p Packet
	if err := p.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	if p.BTH.Opcode != OpCompareSwap || p.AtomicETH.Compare != 11 || p.AtomicETH.SwapAdd != 22 {
		t.Fatalf("parse = %+v", p)
	}
}

func TestBuildReadResponses(t *testing.T) {
	payload := bytes.Repeat([]byte{1}, 64)
	for _, op := range []Opcode{OpReadResponseOnly, OpReadResponseFirst, OpReadResponseLast} {
		frame := BuildReadResponseInto(DefaultPool, testParams(), op, 5, payload)
		var p Packet
		if err := p.DecodeFromBytes(frame); err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if p.BTH.Opcode != op || !p.HasAETH || p.AETH.MSN != 5 {
			t.Fatalf("%v parse = %+v", op, p)
		}
		if !bytes.Equal(p.Payload, payload) {
			t.Fatalf("%v payload mismatch", op)
		}
	}
	// Middle responses carry no AETH.
	frame := BuildReadResponseInto(DefaultPool, testParams(), OpReadResponseMiddle, 0, payload)
	var p Packet
	if err := p.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	if p.HasAETH {
		t.Fatal("middle response has AETH")
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Fatal("middle payload mismatch")
	}
}

func TestBuildReadResponsePanicsOnWrongOpcode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildReadResponseInto(DefaultPool, testParams(), OpWriteOnly, 0, nil)
}

func TestBuildAckAndNak(t *testing.T) {
	frame := BuildAckInto(DefaultPool, testParams(), AETHNakPSNSeq, 77)
	var p Packet
	if err := p.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	if p.BTH.Opcode != OpAcknowledge || !p.HasAETH || !p.AETH.IsNak() || p.AETH.MSN != 77 {
		t.Fatalf("parse = %+v", p)
	}
}

func TestBuildAtomicAck(t *testing.T) {
	frame := BuildAtomicAckInto(DefaultPool, testParams(), 3, 0xCAFE)
	var p Packet
	if err := p.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	if p.BTH.Opcode != OpAtomicAcknowledge || !p.HasAETH || !p.HasAtomicAck {
		t.Fatalf("parse = %+v", p)
	}
	if p.AtomicAck.OrigData != 0xCAFE {
		t.Fatalf("orig = %#x", p.AtomicAck.OrigData)
	}
	// Response frame = Eth + IP/UDP/BTH + AETH(4) + AtomicAckETH(8) + ICRC.
	if got, want := len(frame), EthernetLen+40+4+8+ICRCLen; got != want {
		t.Fatalf("atomic ack frame = %d bytes, want %d", got, want)
	}
}

func TestICRCDetectsCorruption(t *testing.T) {
	frame := BuildWriteOnlyInto(DefaultPool, testParams(), 0, 1, []byte{1, 2, 3, 4})
	frame[len(frame)-10] ^= 0x01 // corrupt payload
	var p Packet
	if err := p.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	if p.ICRCOK {
		t.Fatal("ICRC verified a corrupted frame")
	}
}

func TestICRCInvariantToTTLChange(t *testing.T) {
	frame := BuildWriteOnlyInto(DefaultPool, testParams(), 0, 1, []byte{1, 2, 3, 4})
	// A router decrements TTL and rewrites the IP checksum; the *invariant*
	// CRC must keep verifying.
	frame[EthernetLen+8]--
	var h IPv4
	if err := h.DecodeFromBytes(frame[EthernetLen:]); err != nil {
		t.Fatal(err)
	}
	h.Put(frame[EthernetLen:]) // recompute IP checksum
	var p Packet
	if err := p.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	if !p.ICRCOK {
		t.Fatal("ICRC not invariant to TTL/checksum rewrite")
	}
}

func TestDecodeNonRoCEUDP(t *testing.T) {
	frame := BuildDataFrame(MACFromUint64(1), MACFromUint64(2),
		IP4{10, 0, 0, 1}, IP4{10, 0, 0, 2}, 1111, 2222, 200, []byte("hello"))
	var p Packet
	if err := p.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	if p.IsRoCE {
		t.Fatal("plain UDP parsed as RoCE")
	}
	if !p.HasUDP || p.UDP.DstPort != 2222 {
		t.Fatalf("udp = %+v", p.UDP)
	}
	if !bytes.HasPrefix(p.Payload, []byte("hello")) {
		t.Fatal("payload lost")
	}
	if len(frame) != 200 {
		t.Fatalf("frame len = %d, want 200", len(frame))
	}
}

func TestDataFrameMinSize(t *testing.T) {
	frame := BuildDataFrame(MACFromUint64(1), MACFromUint64(2),
		IP4{1, 1, 1, 1}, IP4{2, 2, 2, 2}, 1, 2, 10, nil)
	if len(frame) != MinFrameSize {
		t.Fatalf("frame len = %d, want %d", len(frame), MinFrameSize)
	}
}

func TestDecodeNonIPFrame(t *testing.T) {
	frame := make([]byte, 64)
	eth := Ethernet{Dst: BroadcastMAC, Src: MACFromUint64(9), EtherType: EtherTypeTest}
	eth.Put(frame)
	var p Packet
	if err := p.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	if p.HasIPv4 || p.IsRoCE {
		t.Fatalf("flags = %+v", p)
	}
	if len(p.Payload) != 64-EthernetLen {
		t.Fatalf("payload = %d", len(p.Payload))
	}
}

func TestDecodeStripsPadding(t *testing.T) {
	// 60-byte frame carrying a 30-byte IP datagram: the tail is padding.
	inner := BuildDataFrame(MACFromUint64(1), MACFromUint64(2),
		IP4{1, 0, 0, 1}, IP4{1, 0, 0, 2}, 5, 6, 0, []byte("xy"))
	var p Packet
	if err := p.DecodeFromBytes(inner); err != nil {
		t.Fatal(err)
	}
	if want := int(p.UDP.Length) - UDPLen; len(p.Payload) != want {
		t.Fatalf("payload = %d bytes, want %d (padding not stripped)", len(p.Payload), want)
	}
}

func TestDecodeTruncatedRoCEFails(t *testing.T) {
	frame := BuildWriteOnlyInto(DefaultPool, testParams(), 0, 1, []byte{1, 2, 3})
	// Cut into the RETH: IP TotalLen now lies, decode must fail.
	cut := frame[:EthernetLen+IPv4Len+UDPLen+BTHLen+4]
	var p Packet
	if err := p.DecodeFromBytes(cut); err == nil {
		t.Fatal("expected error decoding truncated RoCE frame")
	}
}

func TestPacketReset(t *testing.T) {
	frame := BuildFetchAdd(testParams(), 1, 2, 3)
	var p Packet
	if err := p.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	plain := BuildDataFrame(MACFromUint64(1), MACFromUint64(2), IP4{}, IP4{}, 1, 2, 64, nil)
	if err := p.DecodeFromBytes(plain); err != nil {
		t.Fatal(err)
	}
	if p.IsRoCE || p.HasAtomicETH {
		t.Fatal("stale RoCE flags after reuse")
	}
}

func TestPSNMasking(t *testing.T) {
	p := testParams()
	p.PSN = 0x1FFFFFF // 25 bits: must be masked to 24 on the wire
	frame := BuildReadRequest(p, 0, 1, 8)
	var pkt Packet
	if err := pkt.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	if pkt.BTH.PSN != 0xFFFFFF {
		t.Fatalf("PSN = %#x", pkt.BTH.PSN)
	}
}

// Property: WRITE ONLY round-trips arbitrary payloads bit-exactly.
func TestPropWritePayloadRoundTrip(t *testing.T) {
	f := func(payload []byte, va uint64, rkey uint32) bool {
		if len(payload) > 4096 {
			payload = payload[:4096]
		}
		frame := BuildWriteOnlyInto(DefaultPool, testParams(), va, rkey, payload)
		var p Packet
		if err := p.DecodeFromBytes(frame); err != nil {
			return false
		}
		return p.ICRCOK && bytes.Equal(p.Payload, payload) &&
			p.RETH.VA == va && p.RETH.RKey == rkey
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: flipping any single bit in the frame after the Ethernet header
// either fails to parse or fails the ICRC — silent corruption is impossible.
func TestPropICRCNoSilentCorruption(t *testing.T) {
	base := BuildWriteOnlyInto(DefaultPool, testParams(), 0x1000, 0x42, bytes.Repeat([]byte{7}, 100))
	f := func(pos uint16, bit uint8) bool {
		frame := append([]byte(nil), base...)
		i := EthernetLen + int(pos)%(len(frame)-EthernetLen)
		frame[i] ^= 1 << (bit % 8)
		if i == EthernetLen+1 || i == EthernetLen+8 || i == EthernetLen+10 || i == EthernetLen+11 ||
			i == EthernetLen+IPv4Len+6 || i == EthernetLen+IPv4Len+7 || i == EthernetLen+IPv4Len+UDPLen+4 {
			return true // masked variant fields: ICRC legitimately ignores them
		}
		var p Packet
		if err := p.DecodeFromBytes(frame); err != nil {
			return true // refused to parse: fine
		}
		if !p.IsRoCE {
			return true // corrupted the UDP port: no longer claims to be RoCE
		}
		return !p.ICRCOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestPFCRoundTrip(t *testing.T) {
	src := MACFromUint64(0xAA)
	frame := BuildPFCInto(DefaultPool, src, 500)
	if len(frame) != PFCFrameLen {
		t.Fatalf("PFC frame len = %d", len(frame))
	}
	if !IsMACControl(frame) {
		t.Fatal("IsMACControl false for a PFC frame")
	}
	p, ok := DecodePFC(frame)
	if !ok {
		t.Fatal("DecodePFC failed")
	}
	if p.Src != src || p.ClassEnable != 1 || p.PauseQuanta[0] != 500 {
		t.Fatalf("decoded = %+v", p)
	}
	// Resume frame.
	resume := BuildPFCInto(DefaultPool, src, 0)
	r, ok := DecodePFC(resume)
	if !ok || r.PauseQuanta[0] != 0 {
		t.Fatal("resume decode failed")
	}
}

func TestPFCNotConfusedWithData(t *testing.T) {
	data := BuildDataFrame(MACFromUint64(1), MACFromUint64(2),
		IP4{1, 1, 1, 1}, IP4{2, 2, 2, 2}, 1, 2, 100, nil)
	if IsMACControl(data) {
		t.Fatal("data frame classified as MAC control")
	}
	if _, ok := DecodePFC(data); ok {
		t.Fatal("data frame decoded as PFC")
	}
	// Truncated MAC-control frame must not decode.
	short := make([]byte, EthernetLen+2)
	var eth Ethernet
	eth.EtherType = EtherTypeMACControl
	eth.Put(short)
	if _, ok := DecodePFC(short); ok {
		t.Fatal("truncated control frame decoded")
	}
}

func TestRoCEv1WriteRoundTrip(t *testing.T) {
	p := testParams()
	p.Version = RoCEv1
	payload := bytes.Repeat([]byte{0x3C}, 200)
	frame := BuildWriteOnlyInto(DefaultPool, p, 0x2000, 0x77, payload)
	if frame[12] != 0x89 || frame[13] != 0x15 {
		t.Fatal("v1 frame missing RoCE ethertype")
	}
	if got, want := len(frame), RoCEv1WireLen(RETHLen, 200); got != want {
		t.Fatalf("frame len = %d, want %d", got, want)
	}
	// Paper §4: v1 adds 52 bytes of routing+transport (GRH 40 + BTH 12).
	if got := len(frame) - len(payload) - EthernetLen - RETHLen - ICRCLen; got != 52 {
		t.Fatalf("v1 transport overhead = %d, want 52", got)
	}
	var pkt Packet
	if err := pkt.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	if !pkt.IsRoCE || !pkt.HasGRH || pkt.HasIPv4 || pkt.HasUDP {
		t.Fatalf("flags = %+v", pkt)
	}
	if pkt.GRH.NextHeader != GRHNextHeaderIBA {
		t.Fatalf("next header = %#x", pkt.GRH.NextHeader)
	}
	if !pkt.ICRCOK {
		t.Fatal("v1 ICRC failed")
	}
	if !bytes.Equal(pkt.Payload, payload) {
		t.Fatal("payload mismatch")
	}
	if pkt.RETH.VA != 0x2000 || pkt.RETH.RKey != 0x77 {
		t.Fatalf("RETH = %+v", pkt.RETH)
	}
	// Addresses travel as v4-mapped GIDs and come back via FlowOf.
	k := FlowOf(&pkt)
	if k.SrcIP != p.SrcIP || k.DstIP != p.DstIP {
		t.Fatalf("GID addressing lost: %+v", k)
	}
}

func TestRoCEv1FetchAddAndAck(t *testing.T) {
	p := testParams()
	p.Version = RoCEv1
	frame := BuildFetchAdd(p, 0x10, 0x5, 9)
	var pkt Packet
	if err := pkt.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	if !pkt.HasGRH || !pkt.HasAtomicETH || pkt.AtomicETH.SwapAdd != 9 {
		t.Fatalf("parse = %+v", pkt)
	}
	ack := BuildAtomicAckInto(DefaultPool, p, 1, 42)
	var pkt2 Packet
	if err := pkt2.DecodeFromBytes(ack); err != nil {
		t.Fatal(err)
	}
	if !pkt2.HasGRH || !pkt2.HasAtomicAck || pkt2.AtomicAck.OrigData != 42 {
		t.Fatalf("ack parse = %+v", pkt2)
	}
}

func TestRoCEv1ICRCHopLimitInvariant(t *testing.T) {
	p := testParams()
	p.Version = RoCEv1
	frame := BuildReadRequest(p, 0, 1, 64)
	frame[EthernetLen+7]-- // router decrements GRH hop limit
	var pkt Packet
	if err := pkt.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	if !pkt.ICRCOK {
		t.Fatal("v1 ICRC not invariant to hop-limit change")
	}
	frame[EthernetLen+GRHLen+9] ^= 1 // corrupt the PSN
	if err := pkt.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	if pkt.ICRCOK {
		t.Fatal("v1 ICRC missed PSN corruption")
	}
}

func TestGRHRoundTrip(t *testing.T) {
	h := GRH{
		TClass: 0xB8, FlowLabel: 0xABCDE, PayLen: 1234,
		NextHeader: GRHNextHeaderIBA, HopLimit: 63,
		SGID: V4MappedGID(IP4{10, 0, 0, 1}),
		DGID: V4MappedGID(IP4{10, 0, 0, 2}),
	}
	buf := make([]byte, GRHLen)
	h.Put(buf)
	var g GRH
	if err := g.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if g != h {
		t.Fatalf("round trip:\n got %+v\nwant %+v", g, h)
	}
	ip, ok := GIDToIP4(g.DGID)
	if !ok || ip != (IP4{10, 0, 0, 2}) {
		t.Fatalf("GID→IP = %v,%v", ip, ok)
	}
	if _, ok := GIDToIP4([16]byte{0x20, 0x01}); ok {
		t.Fatal("native IPv6 GID mis-detected as v4-mapped")
	}
}

// Property: both encapsulations round-trip arbitrary WRITE payloads, and
// their length difference is exactly the GRH-vs-IPv4+UDP delta (12 bytes).
func TestPropEncapsulationEquivalence(t *testing.T) {
	f := func(payload []byte, va uint64, rkey uint32) bool {
		if len(payload) > 2048 {
			payload = payload[:2048]
		}
		p2 := testParams()
		p1 := testParams()
		p1.Version = RoCEv1
		f2 := BuildWriteOnlyInto(DefaultPool, p2, va, rkey, payload)
		f1 := BuildWriteOnlyInto(DefaultPool, p1, va, rkey, payload)
		if len(f1)-len(f2) != GRHLen-(IPv4Len+UDPLen) {
			return false
		}
		var d1, d2 Packet
		if d1.DecodeFromBytes(f1) != nil || d2.DecodeFromBytes(f2) != nil {
			return false
		}
		return d1.ICRCOK && d2.ICRCOK &&
			bytes.Equal(d1.Payload, d2.Payload) &&
			d1.RETH == d2.RETH && d1.BTH == d2.BTH
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
