package wire

import (
	"bytes"
	"hash/crc32"
	"testing"
)

// icrcReference is the ICRC the way the wire format defines it: mask the
// variant fields of a copy of the body, then checksum the copy.
func icrcReference(frame []byte) (uint32, bool) {
	v1 := IsRoCEv1Frame(frame)
	min := roceFixedLen
	if v1 {
		min = roceV1FixedLen
	}
	if len(frame) < min+ICRCLen {
		return 0, false
	}
	b := append([]byte(nil), frame[EthernetLen:len(frame)-ICRCLen]...)
	if v1 {
		b[0] |= 0x0F // traffic class, high nibble half
		b[1] |= 0xF0 // traffic class, low nibble half
		b[7] = 0xFF  // hop limit
		b[GRHLen+4] = 0xFF
	} else {
		b[1] = 0xFF // IP TOS
		b[8] = 0xFF // IP TTL
		b[10], b[11] = 0xFF, 0xFF
		b[IPv4Len+6], b[IPv4Len+7] = 0xFF, 0xFF
		b[IPv4Len+UDPLen+4] = 0xFF
	}
	return crc32.ChecksumIEEE(b), true
}

// icrcSeeds builds one frame of every opcode the builders emit, in both
// RoCEv2 and RoCEv1 encapsulation.
func icrcSeeds() [][]byte {
	var out [][]byte
	payload := []byte("gem-icrc-payload")
	for _, ver := range []RoCEVersion{RoCEv2, RoCEv1} {
		p := &RoCEParams{
			SrcMAC: MACFromUint64(0x02AA), DstMAC: MACFromUint64(0x02BB),
			SrcIP: IP4{10, 0, 0, 1}, DstIP: IP4{10, 0, 0, 2},
			UDPSrcPort: 0xC123, DestQP: 7, PSN: 42, Version: ver,
		}
		out = append(out,
			BuildWriteFirstInto(nil, p, 0x100000, 0x55, 8192, payload),
			BuildWriteMiddleInto(nil, p, payload),
			BuildWriteLastInto(nil, p, payload),
			BuildWriteOnlyInto(nil, p, 0x100000, 0x55, payload),
			BuildReadRequestInto(nil, p, 0x100040, 0x55, 256),
			BuildReadResponseInto(nil, p, OpReadResponseFirst, 3, payload),
			BuildReadResponseInto(nil, p, OpReadResponseMiddle, 3, payload),
			BuildReadResponseInto(nil, p, OpReadResponseLast, 3, payload),
			BuildReadResponseInto(nil, p, OpReadResponseOnly, 3, payload),
			BuildAckInto(nil, p, AETHAck, 3),
			BuildAtomicAckInto(nil, p, 3, 0xDEADBEEF),
			BuildCompareSwapInto(nil, p, 0x1000C0, 0x55, 3, 9),
			BuildFetchAddInto(nil, p, 0x100080, 0x55, 1),
		)
	}
	return out
}

// FuzzICRCReference checks the in-place one-pass ICRC against the
// copy-and-mask reference: same CRC for any frame, and the caller's bytes
// unchanged afterwards.
func FuzzICRCReference(f *testing.F) {
	for _, frame := range icrcSeeds() {
		f.Add(frame)
		// The same frame after a switch hop: the builders send TTL and hop
		// limit 255, which is also the mask value, so a decremented copy
		// shows whether the variant bytes are given back.
		hopped := append([]byte(nil), frame...)
		if IsRoCEv1Frame(hopped) {
			hopped[EthernetLen] |= 0x0C // traffic class high bits
			hopped[EthernetLen+7]--     // hop limit
		} else {
			hopped[EthernetLen+1] = 0x03 // ECN CE
			hopped[EthernetLen+8]--      // TTL
		}
		f.Add(hopped)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, frame []byte) {
		orig := append([]byte(nil), frame...)
		want, wantOK := icrcReference(frame)
		got, ok := computeICRC(frame)
		if ok != wantOK || got != want {
			t.Fatalf("computeICRC = %#08x, %v; reference %#08x, %v", got, ok, want, wantOK)
		}
		if !bytes.Equal(frame, orig) {
			t.Fatal("computeICRC changed the frame's bytes")
		}
	})
}

func BenchmarkWireICRC(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"64B", 64}, {"1500B", 1500}} {
		b.Run(size.name, func(b *testing.B) {
			p := &RoCEParams{SrcIP: IP4{10, 0, 0, 1}, DstIP: IP4{10, 0, 0, 2}, DestQP: 7}
			payload := make([]byte, size.n-RoCEWireLen(AETHLen, 0))
			frame := BuildReadResponseInto(nil, p, OpReadResponseOnly, 1, payload)
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := computeICRC(frame); !ok {
					b.Fatal("frame too short")
				}
			}
		})
	}
}
