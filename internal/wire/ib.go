package wire

import "fmt"

// Opcode is an InfiniBand Base Transport Header opcode. Only the Reliable
// Connection (RC) opcodes the primitives need are defined; values follow the
// InfiniBand Architecture Specification vol 1, table 35.
type Opcode uint8

// RC opcodes.
const (
	OpSendFirst          Opcode = 0x00
	OpSendMiddle         Opcode = 0x01
	OpSendLast           Opcode = 0x02
	OpSendOnly           Opcode = 0x04
	OpWriteFirst         Opcode = 0x06
	OpWriteMiddle        Opcode = 0x07
	OpWriteLast          Opcode = 0x08
	OpWriteOnly          Opcode = 0x0A
	OpReadRequest        Opcode = 0x0C
	OpReadResponseFirst  Opcode = 0x0D
	OpReadResponseMiddle Opcode = 0x0E
	OpReadResponseLast   Opcode = 0x0F
	OpReadResponseOnly   Opcode = 0x10
	OpAcknowledge        Opcode = 0x11
	OpAtomicAcknowledge  Opcode = 0x12
	OpCompareSwap        Opcode = 0x13
	OpFetchAdd           Opcode = 0x14
)

func (o Opcode) String() string {
	switch o {
	case OpSendFirst:
		return "SEND_FIRST"
	case OpSendMiddle:
		return "SEND_MIDDLE"
	case OpSendLast:
		return "SEND_LAST"
	case OpSendOnly:
		return "SEND_ONLY"
	case OpWriteFirst:
		return "RDMA_WRITE_FIRST"
	case OpWriteMiddle:
		return "RDMA_WRITE_MIDDLE"
	case OpWriteLast:
		return "RDMA_WRITE_LAST"
	case OpWriteOnly:
		return "RDMA_WRITE_ONLY"
	case OpReadRequest:
		return "RDMA_READ_REQUEST"
	case OpReadResponseFirst:
		return "RDMA_READ_RESPONSE_FIRST"
	case OpReadResponseMiddle:
		return "RDMA_READ_RESPONSE_MIDDLE"
	case OpReadResponseLast:
		return "RDMA_READ_RESPONSE_LAST"
	case OpReadResponseOnly:
		return "RDMA_READ_RESPONSE_ONLY"
	case OpAcknowledge:
		return "ACKNOWLEDGE"
	case OpAtomicAcknowledge:
		return "ATOMIC_ACKNOWLEDGE"
	case OpCompareSwap:
		return "COMPARE_SWAP"
	case OpFetchAdd:
		return "FETCH_ADD"
	default:
		return fmt.Sprintf("Opcode(0x%02x)", uint8(o))
	}
}

// IsReadResponse reports whether o is any RDMA READ response opcode.
func (o Opcode) IsReadResponse() bool {
	return o >= OpReadResponseFirst && o <= OpReadResponseOnly
}

// IsWrite reports whether o is any RDMA WRITE opcode.
func (o Opcode) IsWrite() bool {
	return o == OpWriteFirst || o == OpWriteMiddle || o == OpWriteLast || o == OpWriteOnly
}

// IsAtomic reports whether o is an atomic request.
func (o Opcode) IsAtomic() bool { return o == OpCompareSwap || o == OpFetchAdd }

// HasRETH reports whether a packet with opcode o carries an RETH.
func (o Opcode) HasRETH() bool {
	return o == OpWriteFirst || o == OpWriteOnly || o == OpReadRequest
}

// BTHLen is the length of the Base Transport Header.
const BTHLen = 12

// BTH is the InfiniBand Base Transport Header: 12 bytes present in every
// RoCE packet after the UDP header.
//
// Layout (big endian):
//
//	byte 0      opcode
//	byte 1      SE(1) M(1) Pad(2) TVer(4)
//	bytes 2-3   partition key
//	byte 4      reserved
//	bytes 5-7   destination QP (24 bits)
//	byte 8      AckReq(1) reserved(7)
//	bytes 9-11  packet sequence number (24 bits)
type BTH struct {
	Opcode   Opcode
	SE       bool  // solicited event
	M        bool  // MigReq
	PadCount uint8 // 2 bits: pad bytes appended to payload
	PKey     uint16
	DestQP   uint32 // 24 bits
	AckReq   bool
	PSN      uint32 // 24 bits
}

// DefaultPKey is the default partition key (all members).
const DefaultPKey = 0xFFFF

// WireLen returns the encoded size of the header.
func (BTH) WireLen() int { return BTHLen }

// Put serializes the header into b.
func (h *BTH) Put(b []byte) int {
	_ = b[BTHLen-1]
	b[0] = byte(h.Opcode)
	var b1 byte
	if h.SE {
		b1 |= 0x80
	}
	if h.M {
		b1 |= 0x40
	}
	b1 |= (h.PadCount & 0x3) << 4
	b[1] = b1 // TVer = 0
	be.PutUint16(b[2:4], h.PKey)
	b[4] = 0
	b[5] = byte(h.DestQP >> 16)
	b[6] = byte(h.DestQP >> 8)
	b[7] = byte(h.DestQP)
	if h.AckReq {
		b[8] = 0x80
	} else {
		b[8] = 0
	}
	b[9] = byte(h.PSN >> 16)
	b[10] = byte(h.PSN >> 8)
	b[11] = byte(h.PSN)
	return BTHLen
}

// DecodeFromBytes parses the header from b.
func (h *BTH) DecodeFromBytes(b []byte) error {
	if len(b) < BTHLen {
		return tooShort("bth", BTHLen, len(b))
	}
	h.Opcode = Opcode(b[0])
	h.SE = b[1]&0x80 != 0
	h.M = b[1]&0x40 != 0
	h.PadCount = b[1] >> 4 & 0x3
	if tver := b[1] & 0xf; tver != 0 {
		return fmt.Errorf("%w: BTH TVer %d", ErrBadVersion, tver)
	}
	h.PKey = be.Uint16(b[2:4])
	h.DestQP = uint32(b[5])<<16 | uint32(b[6])<<8 | uint32(b[7])
	h.AckReq = b[8]&0x80 != 0
	h.PSN = uint32(b[9])<<16 | uint32(b[10])<<8 | uint32(b[11])
	return nil
}

// RETHLen is the length of the RDMA Extended Transport Header.
const RETHLen = 16

// RETH is the RDMA Extended Transport Header carried by WRITE first/only and
// READ request packets: virtual address, remote key, and DMA length.
type RETH struct {
	VA     uint64
	RKey   uint32
	DMALen uint32
}

// WireLen returns the encoded size of the header.
func (RETH) WireLen() int { return RETHLen }

// Put serializes the header into b.
func (h *RETH) Put(b []byte) int {
	_ = b[RETHLen-1]
	be.PutUint64(b[0:8], h.VA)
	be.PutUint32(b[8:12], h.RKey)
	be.PutUint32(b[12:16], h.DMALen)
	return RETHLen
}

// DecodeFromBytes parses the header from b.
func (h *RETH) DecodeFromBytes(b []byte) error {
	if len(b) < RETHLen {
		return tooShort("reth", RETHLen, len(b))
	}
	h.VA = be.Uint64(b[0:8])
	h.RKey = be.Uint32(b[8:12])
	h.DMALen = be.Uint32(b[12:16])
	return nil
}

// AtomicETHLen is the length of the Atomic Extended Transport Header.
const AtomicETHLen = 28

// AtomicETH is the extended header of FetchAdd and CompareSwap requests.
type AtomicETH struct {
	VA      uint64
	RKey    uint32
	SwapAdd uint64 // add operand for FetchAdd, swap value for CompareSwap
	Compare uint64 // compare value for CompareSwap; ignored for FetchAdd
}

// WireLen returns the encoded size of the header.
func (AtomicETH) WireLen() int { return AtomicETHLen }

// Put serializes the header into b.
func (h *AtomicETH) Put(b []byte) int {
	_ = b[AtomicETHLen-1]
	be.PutUint64(b[0:8], h.VA)
	be.PutUint32(b[8:12], h.RKey)
	be.PutUint64(b[12:20], h.SwapAdd)
	be.PutUint64(b[20:28], h.Compare)
	return AtomicETHLen
}

// DecodeFromBytes parses the header from b.
func (h *AtomicETH) DecodeFromBytes(b []byte) error {
	if len(b) < AtomicETHLen {
		return tooShort("atomiceth", AtomicETHLen, len(b))
	}
	h.VA = be.Uint64(b[0:8])
	h.RKey = be.Uint32(b[8:12])
	h.SwapAdd = be.Uint64(b[12:20])
	h.Compare = be.Uint64(b[20:28])
	return nil
}

// AETHLen is the length of the ACK Extended Transport Header.
const AETHLen = 4

// AETH syndromes (high 3 bits select the class; see IBA 9.7.5.2.4).
const (
	AETHAck         uint8 = 0x00 // ACK, credit field in low 5 bits
	AETHRNRNak      uint8 = 0x20
	AETHNakPSNSeq   uint8 = 0x60 // NAK code 0: PSN sequence error
	AETHNakInvalid  uint8 = 0x61 // NAK code 1: invalid request
	AETHNakRemAcces uint8 = 0x62 // NAK code 2: remote access error
	AETHNakRemOp    uint8 = 0x63 // NAK code 3: remote operation error
)

// AETH is the ACK Extended Transport Header carried by ACK, atomic ACK and
// first/last/only READ response packets.
type AETH struct {
	Syndrome uint8
	MSN      uint32 // 24 bits: message sequence number
}

// WireLen returns the encoded size of the header.
func (AETH) WireLen() int { return AETHLen }

// Put serializes the header into b.
func (h *AETH) Put(b []byte) int {
	_ = b[AETHLen-1]
	b[0] = h.Syndrome
	b[1] = byte(h.MSN >> 16)
	b[2] = byte(h.MSN >> 8)
	b[3] = byte(h.MSN)
	return AETHLen
}

// DecodeFromBytes parses the header from b.
func (h *AETH) DecodeFromBytes(b []byte) error {
	if len(b) < AETHLen {
		return tooShort("aeth", AETHLen, len(b))
	}
	h.Syndrome = b[0]
	h.MSN = uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	return nil
}

// IsNak reports whether the syndrome encodes a NAK.
func (h *AETH) IsNak() bool { return h.Syndrome&0xE0 == 0x60 }

// AtomicAckETHLen is the length of the Atomic ACK Extended Transport Header.
const AtomicAckETHLen = 8

// AtomicAckETH carries the original value read from remote memory by an
// atomic operation.
type AtomicAckETH struct {
	OrigData uint64
}

// WireLen returns the encoded size of the header.
func (AtomicAckETH) WireLen() int { return AtomicAckETHLen }

// Put serializes the header into b.
func (h *AtomicAckETH) Put(b []byte) int {
	_ = b[AtomicAckETHLen-1]
	be.PutUint64(b[0:8], h.OrigData)
	return AtomicAckETHLen
}

// DecodeFromBytes parses the header from b.
func (h *AtomicAckETH) DecodeFromBytes(b []byte) error {
	if len(b) < AtomicAckETHLen {
		return tooShort("atomicacketh", AtomicAckETHLen, len(b))
	}
	h.OrigData = be.Uint64(b[0:8])
	return nil
}

// ICRCLen is the length of the invariant CRC trailing every RoCE packet.
const ICRCLen = 4

// GRHLen is the length of the Global Route Header used by RoCEv1 instead of
// IPv4+UDP. The simulation transmits RoCEv2, but the overhead accounting in
// §4 of the paper compares both encapsulations.
const GRHLen = 40
