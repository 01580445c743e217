package wire

import (
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestFlowKeyHashIsCRC32C: the per-position tables compute exactly
// CRC32-C over the 13-byte big-endian serialization, and hashing allocates
// nothing (crc32.Checksum's buffer escaped: one object per hash).
func TestFlowKeyHashIsCRC32C(t *testing.T) {
	ref := func(k FlowKey) uint32 {
		var b [13]byte
		copy(b[0:4], k.SrcIP[:])
		copy(b[4:8], k.DstIP[:])
		b[8] = k.Protocol
		be.PutUint16(b[9:11], k.SrcPort)
		be.PutUint16(b[11:13], k.DstPort)
		return crc32.Checksum(b[:], castagnoli)
	}
	rng := rand.New(rand.NewSource(1))
	keys := []FlowKey{{}, {SrcIP: IP4{255, 255, 255, 255}, DstIP: IP4{255, 255, 255, 255}, Protocol: 255, SrcPort: 0xFFFF, DstPort: 0xFFFF}}
	for len(keys) < 200_000 {
		k := FlowKey{SrcIP: IP4FromUint32(rng.Uint32()), DstIP: IP4FromUint32(rng.Uint32()),
			Protocol: uint8(rng.Intn(256)), SrcPort: uint16(rng.Intn(1 << 16)), DstPort: uint16(rng.Intn(1 << 16))}
		if len(keys)%2 == 0 { // the shape the workloads hash: one byte or port differs
			k = FlowKey{SrcIP: IP4{10, 0, 0, 1}, DstIP: IP4{10, 0, 0, 2}, Protocol: ProtoUDP, SrcPort: k.SrcPort, DstPort: k.DstPort}
		}
		keys = append(keys, k)
	}
	for _, k := range keys {
		if got, want := k.Hash(), ref(k); got != want {
			t.Fatalf("Hash(%+v) = %#x, want CRC32-C %#x", k, got, want)
		}
	}
	var sink uint32
	if allocs := testing.AllocsPerRun(1000, func() { sink += keys[7].Hash() }); allocs != 0 {
		t.Fatalf("FlowKey.Hash allocates %.1f times/op, want 0", allocs)
	}
	_ = sink
}

func BenchmarkFlowKeyHash(b *testing.B) {
	k := FlowKey{SrcIP: IP4{10, 0, 0, 1}, DstIP: IP4{10, 0, 0, 2}, Protocol: 17, SrcPort: 1000, DstPort: 2000}
	b.ReportAllocs()
	var sink uint32
	for i := 0; i < b.N; i++ {
		k.SrcPort = uint16(i)
		sink += k.Hash()
	}
	_ = sink
}

func TestFlowKeyHashDeterministic(t *testing.T) {
	k := FlowKey{SrcIP: IP4{10, 0, 0, 1}, DstIP: IP4{10, 0, 0, 2}, Protocol: 17, SrcPort: 1000, DstPort: 2000}
	if k.Hash() != k.Hash() {
		t.Fatal("hash not deterministic")
	}
	k2 := k
	k2.SrcPort = 1001
	if k.Hash() == k2.Hash() {
		t.Fatal("hash collision on adjacent ports (suspicious for CRC32C)")
	}
}

func TestFlowKeyIndexInRange(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, n uint16) bool {
		size := int(n%1000) + 1
		k := FlowKey{SrcIP: IP4FromUint32(src), DstIP: IP4FromUint32(dst), Protocol: 17, SrcPort: sp, DstPort: dp}
		idx := k.Index(size)
		return idx >= 0 && idx < size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlowOf(t *testing.T) {
	frame := BuildDataFrame(MACFromUint64(1), MACFromUint64(2),
		IP4{10, 0, 0, 1}, IP4{10, 0, 0, 9}, 4444, 5555, 128, nil)
	var p Packet
	if err := p.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	k := FlowOf(&p)
	want := FlowKey{SrcIP: IP4{10, 0, 0, 1}, DstIP: IP4{10, 0, 0, 9}, Protocol: 17, SrcPort: 4444, DstPort: 5555}
	if k != want {
		t.Fatalf("FlowOf = %+v, want %+v", k, want)
	}
}

func TestFlowHashSpreads(t *testing.T) {
	// 10k flows into 64 buckets: no bucket should be wildly over-loaded.
	const flows, buckets = 10000, 64
	var counts [buckets]int
	for i := 0; i < flows; i++ {
		k := FlowKey{
			SrcIP: IP4FromUint32(0x0a000000 + uint32(i)), DstIP: IP4{10, 1, 0, 1},
			Protocol: 17, SrcPort: uint16(i), DstPort: 80,
		}
		counts[k.Index(buckets)]++
	}
	mean := flows / buckets
	for b, c := range counts {
		if c < mean/2 || c > mean*2 {
			t.Fatalf("bucket %d has %d flows (mean %d): poor spread", b, c, mean)
		}
	}
}
