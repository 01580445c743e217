package wire

import "fmt"

// IP4 is an IPv4 address as a value type (usable as a map key).
type IP4 [4]byte

// IP4FromUint32 builds an address from its integer form.
func IP4FromUint32(v uint32) IP4 {
	return IP4{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

func (a IP4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// IPv4Len is the length of an IPv4 header without options; the simulation
// never emits options.
const IPv4Len = 20

// IPv4 is an IPv4 header (no options).
type IPv4 struct {
	DSCP     uint8 // 6 bits
	ECN      uint8 // 2 bits
	TotalLen uint16
	ID       uint16
	DontFrag bool
	TTL      uint8
	Protocol uint8
	Checksum uint16 // filled by Put; DecodeFromBytes reads it without checking
	Src, Dst IP4
}

// WireLen returns the encoded size of the header.
func (IPv4) WireLen() int { return IPv4Len }

// Put serializes the header into b and computes the checksum in place.
func (h *IPv4) Put(b []byte) int {
	_ = b[IPv4Len-1]
	b[0] = 0x45 // version 4, IHL 5
	b[1] = h.DSCP<<2 | h.ECN&0x3
	be.PutUint16(b[2:4], h.TotalLen)
	be.PutUint16(b[4:6], h.ID)
	var flags uint16
	if h.DontFrag {
		flags = 0x4000
	}
	be.PutUint16(b[6:8], flags)
	b[8] = h.TTL
	b[9] = h.Protocol
	be.PutUint16(b[10:12], 0)
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	h.Checksum = ipChecksum(b[:IPv4Len])
	be.PutUint16(b[10:12], h.Checksum)
	return IPv4Len
}

// DecodeFromBytes parses the header from b.
func (h *IPv4) DecodeFromBytes(b []byte) error {
	if len(b) < IPv4Len {
		return tooShort("ipv4", IPv4Len, len(b))
	}
	if v := b[0] >> 4; v != 4 {
		return fmt.Errorf("%w: ipv4 version %d", ErrBadVersion, v)
	}
	if ihl := int(b[0]&0xf) * 4; ihl != IPv4Len {
		return fmt.Errorf("%w: ipv4 options unsupported (ihl=%d)", ErrBadProtocol, ihl)
	}
	h.DSCP = b[1] >> 2
	h.ECN = b[1] & 0x3
	h.TotalLen = be.Uint16(b[2:4])
	h.ID = be.Uint16(b[4:6])
	h.DontFrag = be.Uint16(b[6:8])&0x4000 != 0
	h.TTL = b[8]
	h.Protocol = b[9]
	h.Checksum = be.Uint16(b[10:12])
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	return nil
}

// ipChecksum computes the RFC 1071 ones-complement checksum of b.
func ipChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(be.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// SetDSCP stamps the DSCP field of a built data frame's IPv4 header in
// place, re-checksumming the header. Frames too short for Ethernet+IPv4 or
// without a well-formed IPv4 header are left untouched. DSCP >= 32 (e.g.
// EF) classifies the frame as high priority in the switch pipeline.
func SetDSCP(frame []byte, dscp uint8) {
	if len(frame) < EthernetLen+IPv4Len {
		return
	}
	ip := frame[EthernetLen:]
	var h IPv4
	if h.DecodeFromBytes(ip) == nil {
		h.DSCP = dscp
		h.Put(ip)
	}
}
