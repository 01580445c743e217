package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestMACRoundTrip(t *testing.T) {
	m := MACFromUint64(0x0123456789ab)
	if m.Uint64() != 0x0123456789ab {
		t.Fatalf("MAC round trip: %x", m.Uint64())
	}
	if got := m.String(); got != "01:23:45:67:89:ab" {
		t.Fatalf("MAC string = %q", got)
	}
	if !BroadcastMAC.IsBroadcast() {
		t.Fatal("BroadcastMAC not broadcast")
	}
	if m.IsBroadcast() {
		t.Fatal("unicast reported broadcast")
	}
}

func TestIP4RoundTrip(t *testing.T) {
	a := IP4FromUint32(0x0a000102)
	if a.String() != "10.0.1.2" {
		t.Fatalf("IP string = %q", a)
	}
	if a != (IP4{10, 0, 1, 2}) {
		t.Fatalf("IP bytes = %v", a[:])
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	h := Ethernet{Dst: MACFromUint64(1), Src: MACFromUint64(2), EtherType: EtherTypeIPv4}
	buf := make([]byte, EthernetLen)
	if n := h.Put(buf); n != EthernetLen {
		t.Fatalf("Put returned %d", n)
	}
	var g Ethernet
	if err := g.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if g != h {
		t.Fatalf("round trip: got %+v want %+v", g, h)
	}
}

func TestEthernetTooShort(t *testing.T) {
	var g Ethernet
	if err := g.DecodeFromBytes(make([]byte, 13)); !errors.Is(err, ErrTooShort) {
		t.Fatalf("err = %v, want ErrTooShort", err)
	}
}

func TestIPv4RoundTripAndChecksum(t *testing.T) {
	h := IPv4{
		DSCP: 46, ECN: 1, TotalLen: 120, ID: 7, DontFrag: true,
		TTL: 64, Protocol: ProtoUDP,
		Src: IP4{10, 0, 0, 1}, Dst: IP4{10, 0, 0, 2},
	}
	buf := make([]byte, IPv4Len)
	h.Put(buf)
	// RFC 1071: checksum over a valid header (checksum field included) is 0.
	if s := ipChecksum(buf); s != 0 {
		t.Fatalf("checksum over encoded header = %#x, want 0", s)
	}
	var g IPv4
	if err := g.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if g != h {
		t.Fatalf("round trip:\n got %+v\nwant %+v", g, h)
	}
	// Corrupt a byte: checksum must no longer verify.
	buf[15] ^= 0xff
	if s := ipChecksum(buf); s == 0 {
		t.Fatal("checksum did not detect corruption")
	}
}

func TestIPv4RejectsBadVersion(t *testing.T) {
	buf := make([]byte, IPv4Len)
	buf[0] = 0x65 // version 6
	var g IPv4
	if err := g.DecodeFromBytes(buf); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestIPv4RejectsOptions(t *testing.T) {
	buf := make([]byte, 24)
	buf[0] = 0x46 // IHL 6
	var g IPv4
	if err := g.DecodeFromBytes(buf); err == nil {
		t.Fatal("expected error for IPv4 options")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	h := UDP{SrcPort: 1234, DstPort: UDPPortRoCEv2, Length: 100, Checksum: 0}
	buf := make([]byte, UDPLen)
	h.Put(buf)
	var g UDP
	if err := g.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if g != h {
		t.Fatalf("round trip: got %+v want %+v", g, h)
	}
}

func TestBTHRoundTrip(t *testing.T) {
	h := BTH{
		Opcode: OpWriteOnly, SE: true, M: false, PadCount: 3,
		PKey: DefaultPKey, DestQP: 0xABCDEF, AckReq: true, PSN: 0x123456,
	}
	buf := make([]byte, BTHLen)
	h.Put(buf)
	var g BTH
	if err := g.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if g != h {
		t.Fatalf("round trip:\n got %+v\nwant %+v", g, h)
	}
}

func TestBTH24BitFields(t *testing.T) {
	h := BTH{Opcode: OpReadRequest, DestQP: 0xFFFFFF, PSN: 0xFFFFFF}
	buf := make([]byte, BTHLen)
	h.Put(buf)
	var g BTH
	if err := g.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if g.DestQP != 0xFFFFFF || g.PSN != 0xFFFFFF {
		t.Fatalf("24-bit fields clipped: %+v", g)
	}
}

func TestBTHRejectsBadTVer(t *testing.T) {
	buf := make([]byte, BTHLen)
	buf[1] = 0x05 // TVer=5
	var g BTH
	if err := g.DecodeFromBytes(buf); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestRETHRoundTrip(t *testing.T) {
	h := RETH{VA: 0xDEADBEEFCAFE0123, RKey: 0x11223344, DMALen: 2048}
	buf := make([]byte, RETHLen)
	h.Put(buf)
	var g RETH
	if err := g.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if g != h {
		t.Fatalf("round trip: got %+v want %+v", g, h)
	}
}

func TestAtomicETHRoundTrip(t *testing.T) {
	h := AtomicETH{VA: 0x1000, RKey: 7, SwapAdd: 42, Compare: 99}
	buf := make([]byte, AtomicETHLen)
	h.Put(buf)
	var g AtomicETH
	if err := g.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if g != h {
		t.Fatalf("round trip: got %+v want %+v", g, h)
	}
}

func TestAETHRoundTripAndNak(t *testing.T) {
	h := AETH{Syndrome: AETHNakPSNSeq, MSN: 0x00FF00}
	buf := make([]byte, AETHLen)
	h.Put(buf)
	var g AETH
	if err := g.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if g != h {
		t.Fatalf("round trip: got %+v want %+v", g, h)
	}
	if !g.IsNak() {
		t.Fatal("PSN-seq syndrome not reported as NAK")
	}
	ack := AETH{Syndrome: AETHAck}
	if ack.IsNak() {
		t.Fatal("ACK syndrome reported as NAK")
	}
}

func TestAtomicAckETHRoundTrip(t *testing.T) {
	h := AtomicAckETH{OrigData: 0xFEEDFACE12345678}
	buf := make([]byte, AtomicAckETHLen)
	h.Put(buf)
	var g AtomicAckETH
	if err := g.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if g != h {
		t.Fatalf("round trip: got %+v want %+v", g, h)
	}
}

func TestOpcodeClassification(t *testing.T) {
	cases := []struct {
		op                               Opcode
		write, readResp, atomic, hasReth bool
	}{
		{OpWriteOnly, true, false, false, true},
		{OpWriteFirst, true, false, false, true},
		{OpWriteMiddle, true, false, false, false},
		{OpWriteLast, true, false, false, false},
		{OpReadRequest, false, false, false, true},
		{OpReadResponseOnly, false, true, false, false},
		{OpReadResponseFirst, false, true, false, false},
		{OpReadResponseMiddle, false, true, false, false},
		{OpReadResponseLast, false, true, false, false},
		{OpFetchAdd, false, false, true, false},
		{OpCompareSwap, false, false, true, false},
		{OpAcknowledge, false, false, false, false},
		{OpAtomicAcknowledge, false, false, false, false},
	}
	for _, c := range cases {
		if c.op.IsWrite() != c.write {
			t.Errorf("%v IsWrite = %v", c.op, c.op.IsWrite())
		}
		if c.op.IsReadResponse() != c.readResp {
			t.Errorf("%v IsReadResponse = %v", c.op, c.op.IsReadResponse())
		}
		if c.op.IsAtomic() != c.atomic {
			t.Errorf("%v IsAtomic = %v", c.op, c.op.IsAtomic())
		}
		if c.op.HasRETH() != c.hasReth {
			t.Errorf("%v HasRETH = %v", c.op, c.op.HasRETH())
		}
	}
}

func TestOpcodeStrings(t *testing.T) {
	if OpWriteOnly.String() != "RDMA_WRITE_ONLY" {
		t.Fatalf("got %q", OpWriteOnly.String())
	}
	if Opcode(0xEE).String() != "Opcode(0xee)" {
		t.Fatalf("got %q", Opcode(0xEE).String())
	}
}

// Property: every header round-trips through Put/DecodeFromBytes.
func TestPropBTHRoundTrip(t *testing.T) {
	f := func(op uint8, se, m, ack bool, pad uint8, pkey uint16, qp, psn uint32) bool {
		h := BTH{
			Opcode: Opcode(op), SE: se, M: m, PadCount: pad & 3,
			PKey: pkey, DestQP: qp & 0xFFFFFF, AckReq: ack, PSN: psn & 0xFFFFFF,
		}
		buf := make([]byte, BTHLen)
		h.Put(buf)
		var g BTH
		if err := g.DecodeFromBytes(buf); err != nil {
			return false
		}
		return g == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropRETHRoundTrip(t *testing.T) {
	f := func(va uint64, rkey, dmaLen uint32) bool {
		h := RETH{VA: va, RKey: rkey, DMALen: dmaLen}
		buf := make([]byte, RETHLen)
		h.Put(buf)
		var g RETH
		return g.DecodeFromBytes(buf) == nil && g == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropIPv4ChecksumDetectsSingleByteCorruption(t *testing.T) {
	f := func(src, dst uint32, ttl uint8, totalLen uint16, flip uint8) bool {
		h := IPv4{TTL: ttl, Protocol: ProtoUDP, TotalLen: totalLen,
			Src: IP4FromUint32(src), Dst: IP4FromUint32(dst)}
		buf := make([]byte, IPv4Len)
		h.Put(buf)
		pos := int(flip) % IPv4Len
		bit := byte(1) << (flip % 8)
		buf[pos] ^= bit
		return ipChecksum(buf) != 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPutPanicsOnShortBuffer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var h BTH
	h.Put(make([]byte, 4))
}

func TestWireLens(t *testing.T) {
	// The lengths here are load-bearing for the paper's §4 overhead math.
	if (Ethernet{}).WireLen() != 14 ||
		(IPv4{}).WireLen() != 20 ||
		(UDP{}).WireLen() != 8 ||
		(BTH{}).WireLen() != 12 ||
		(RETH{}).WireLen() != 16 ||
		(AtomicETH{}).WireLen() != 28 ||
		(AETH{}).WireLen() != 4 ||
		(AtomicAckETH{}).WireLen() != 8 {
		t.Fatal("header wire length regressed")
	}
}

func TestBTHEncodingBytes(t *testing.T) {
	// Pin the exact byte layout against the IBA spec field positions.
	h := BTH{Opcode: OpFetchAdd, PKey: 0xFFFF, DestQP: 0x010203, AckReq: true, PSN: 0x0A0B0C}
	buf := make([]byte, BTHLen)
	h.Put(buf)
	want := []byte{0x14, 0x00, 0xFF, 0xFF, 0x00, 0x01, 0x02, 0x03, 0x80, 0x0A, 0x0B, 0x0C}
	if !bytes.Equal(buf, want) {
		t.Fatalf("BTH bytes = % x, want % x", buf, want)
	}
}
