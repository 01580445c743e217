// Package wire implements byte-exact encoders and decoders for the protocol
// headers that a switch data plane must craft and parse to speak RoCEv2 with
// commodity RDMA NICs: Ethernet II, IPv4, UDP, and the InfiniBand transport
// headers (BTH, RETH, AETH, AtomicETH, AtomicAckETH) plus the trailing ICRC.
//
// The design follows the gopacket conventions from the Go networking guides:
// each header type has a fixed WireLen, a Put method that serializes into a
// caller-provided buffer, and a DecodeFromBytes method that parses into a
// preallocated struct without copying payload bytes. Composite helpers in
// frame.go build and parse whole RoCE frames in one call.
//
// Everything the simulation sends "on the wire" is produced by this package;
// the switch and the RNIC models communicate only through these bytes, which
// is what makes the paper's feasibility claim (RDMA requests are just
// Ethernet packets any device can craft) meaningful in simulation.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// be is the byte order of every header in this package.
var be = binary.BigEndian

// Decoding errors. Decoders return wrapped versions carrying detail; use
// errors.Is to classify.
var (
	ErrTooShort    = errors.New("wire: buffer too short")
	ErrBadVersion  = errors.New("wire: unsupported version")
	ErrBadProtocol = errors.New("wire: unexpected protocol")
)

func tooShort(what string, need, have int) error {
	return fmt.Errorf("%w: %s needs %d bytes, have %d", ErrTooShort, what, need, have)
}

// EtherType values used by the simulation.
const (
	EtherTypeIPv4   uint16 = 0x0800
	EtherTypeRoCEv1 uint16 = 0x8915 // RoCEv1: GRH directly over Ethernet
	EtherTypeTest   uint16 = 0x88B5 // IEEE local experimental; used by raw traffic generators
)

// Well-known constants of the RoCEv2 encapsulation.
const (
	UDPPortRoCEv2 = 4791 // IANA-assigned destination port for RoCEv2
	ProtoUDP      = 17
)

// Physical-layer framing overhead per Ethernet frame: preamble (7) + SFD (1)
// + FCS (4) + minimum inter-frame gap (12). Link serialization accounts for
// these bytes even though they are not part of the frame buffer.
const EthernetFramingOverhead = 24

// MinFrameSize is the minimum Ethernet payload-bearing frame size (without
// FCS, which lives in the framing overhead here).
const MinFrameSize = 60
