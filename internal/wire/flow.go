package wire

import "hash/crc32"

// FlowKey is the classic 5-tuple. It is a comparable value type, so it can
// key exact-match tables and Go maps directly (the gopacket Endpoint/Flow
// pattern, specialized to what the primitives hash on).
type FlowKey struct {
	SrcIP, DstIP     IP4
	Protocol         uint8
	SrcPort, DstPort uint16
}

// castagnoli mirrors the CRC unit switch ASICs expose to P4 programs.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// flowKeyLen is the hashed serialization of a FlowKey: src IP, dst IP,
// protocol, src port, dst port, big-endian.
const flowKeyLen = 13

// flowCRC holds CRC32-C of a flowKeyLen-byte message as per-position tables.
// A CRC is affine in the message bits and the length is fixed, so
// crc(m) = zero ^ XOR over positions i of byPos[i][m[i]], where zero is the
// CRC of the all-zero message and byPos[i][v] is the CRC of the message whose
// only non-zero byte is v at i, XOR zero. crc32.Checksum dispatches through a
// function variable, which makes its argument buffer escape (one heap object
// per hash); thirteen lookups need no buffer at all.
var flowCRC struct {
	zero  uint32
	byPos [flowKeyLen][256]uint32
}

func init() {
	var m [flowKeyLen]byte
	flowCRC.zero = crc32.Checksum(m[:], castagnoli)
	for i := range m {
		for v := 1; v < 256; v++ {
			m[i] = byte(v)
			flowCRC.byPos[i][v] = crc32.Checksum(m[:], castagnoli) ^ flowCRC.zero
		}
		m[i] = 0
	}
}

// Hash returns a 32-bit hash of the flow key, computed with CRC32-C the way
// a P4 program would use the switch's hash engine.
func (k FlowKey) Hash() uint32 {
	t := &flowCRC.byPos
	return flowCRC.zero ^
		t[0][k.SrcIP[0]] ^ t[1][k.SrcIP[1]] ^ t[2][k.SrcIP[2]] ^ t[3][k.SrcIP[3]] ^
		t[4][k.DstIP[0]] ^ t[5][k.DstIP[1]] ^ t[6][k.DstIP[2]] ^ t[7][k.DstIP[3]] ^
		t[8][k.Protocol] ^
		t[9][byte(k.SrcPort>>8)] ^ t[10][byte(k.SrcPort)] ^
		t[11][byte(k.DstPort>>8)] ^ t[12][byte(k.DstPort)]
}

// Index maps the flow hash onto a table of n entries. n must be positive.
func (k FlowKey) Index(n int) int { return int(k.Hash() % uint32(n)) }

// FlowOf extracts the 5-tuple from a parsed packet. Packets without an IPv4
// or UDP layer yield a key with the available fields and zeroes elsewhere.
func FlowOf(p *Packet) FlowKey {
	var k FlowKey
	if p.HasIPv4 {
		k.SrcIP, k.DstIP, k.Protocol = p.IP.Src, p.IP.Dst, p.IP.Protocol
	}
	if p.HasUDP {
		k.SrcPort, k.DstPort = p.UDP.SrcPort, p.UDP.DstPort
	}
	if p.HasGRH {
		// RoCEv1: addresses ride in v4-mapped GIDs.
		if src, ok := GIDToIP4(p.GRH.SGID); ok {
			k.SrcIP = src
		}
		if dst, ok := GIDToIP4(p.GRH.DGID); ok {
			k.DstIP = dst
		}
	}
	return k
}
