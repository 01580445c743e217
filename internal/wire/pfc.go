package wire

// Priority Flow Control (IEEE 802.1Qbb) frames, the §7 mitigation for RDMA
// packet drops: "one could enable PFC, just like today's RoCE deployment,
// to avoid congestion drops." A NIC whose receive resources run low pauses
// the switch port feeding it; the backlog then waits in the switch buffer
// instead of being dropped at the NIC.

// EtherTypeMACControl is the MAC control frame ethertype (pause/PFC).
const EtherTypeMACControl uint16 = 0x8808

// PFCOpcode is the 802.1Qbb priority pause opcode.
const PFCOpcode uint16 = 0x0101

// PFCDst is the reserved multicast address MAC control frames use.
var PFCDst = MAC{0x01, 0x80, 0xC2, 0x00, 0x00, 0x01}

// PFCQuantum is 512 bit times: the unit of pause duration.
const PFCQuantum = 512

// PFCFrameLen is Ethernet header + opcode + class vector + 8 pause times,
// padded to the Ethernet minimum.
const PFCFrameLen = MinFrameSize

// PFC is a priority pause frame. Only class 0 is used by the simulation.
type PFC struct {
	Src MAC
	// ClassEnable is the per-priority enable bitmap.
	ClassEnable uint16
	// PauseQuanta holds the pause time per priority, in 512-bit-time
	// quanta; 0 resumes.
	PauseQuanta [8]uint16
}

// BuildPFCInto encodes a pause (or resume, quanta=0) for class 0, drawing
// the frame buffer from pool (nil = plain allocation).
func BuildPFCInto(pool *Pool, src MAC, quanta uint16) []byte {
	p := PFC{Src: src, ClassEnable: 1}
	p.PauseQuanta[0] = quanta
	return p.EncodeInto(pool)
}

// EncodeInto serializes the frame into a buffer drawn from pool (nil =
// plain allocation).
func (p *PFC) EncodeInto(pool *Pool) []byte {
	frame := pool.Get(PFCFrameLen)
	eth := Ethernet{Dst: PFCDst, Src: p.Src, EtherType: EtherTypeMACControl}
	off := eth.Put(frame)
	be.PutUint16(frame[off:], PFCOpcode)
	be.PutUint16(frame[off+2:], p.ClassEnable)
	for i, q := range p.PauseQuanta {
		be.PutUint16(frame[off+4+2*i:], q)
	}
	// The frame is mostly padding; pooled buffers carry stale bytes.
	clear(frame[off+4+2*len(p.PauseQuanta):])
	return frame
}

// DecodePFC parses frame as a PFC frame; ok is false if it is not one.
func DecodePFC(frame []byte) (p PFC, ok bool) {
	var eth Ethernet
	if eth.DecodeFromBytes(frame) != nil || eth.EtherType != EtherTypeMACControl {
		return p, false
	}
	body := frame[EthernetLen:]
	if len(body) < 20 || be.Uint16(body[0:2]) != PFCOpcode {
		return p, false
	}
	p.Src = eth.Src
	p.ClassEnable = be.Uint16(body[2:4])
	for i := range p.PauseQuanta {
		p.PauseQuanta[i] = be.Uint16(body[4+2*i : 6+2*i])
	}
	return p, true
}

// IsMACControl reports whether the frame is a MAC control (pause) frame,
// cheaply, without full parsing.
func IsMACControl(frame []byte) bool {
	return len(frame) >= EthernetLen &&
		frame[12] == 0x88 && frame[13] == 0x08
}
