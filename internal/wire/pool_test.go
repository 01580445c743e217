package wire

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func TestPoolSizeClasses(t *testing.T) {
	p := NewPool()
	for _, n := range []int{1, 63, 64, 65, 1500, 4096, 16384} {
		b := p.Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d) length = %d", n, len(b))
		}
		if c := cap(b); c&(c-1) != 0 || c < n {
			t.Fatalf("Get(%d) cap = %d, want power of two >= n", n, c)
		}
		p.Put(b)
	}
	// Oversized requests bypass the pool entirely.
	big := p.Get(1 << 20)
	if len(big) != 1<<20 {
		t.Fatalf("oversized Get length = %d", len(big))
	}
	p.Put(big)
	// 5 distinct classes were touched (64, 128, 2048, 4096, 16384): the
	// same-class sizes reused one buffer, and the oversized one was dropped.
	if s := p.Stats(); s.Free != 5 {
		t.Fatalf("pooled %d buffers, want 5 (oversized must be dropped)", s.Free)
	}
}

func TestPoolReuse(t *testing.T) {
	p := NewPool()
	a := p.Get(100)
	p.Put(a)
	b := p.Get(90)
	if &a[0] != &b[0] {
		t.Fatal("Get after Put did not reuse the pooled buffer")
	}
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Puts != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 put", s)
	}
}

func TestPoolClone(t *testing.T) {
	p := NewPool()
	src := []byte{1, 2, 3, 4, 5}
	c := p.Clone(src)
	if !bytes.Equal(c, src) {
		t.Fatalf("Clone = % x, want % x", c, src)
	}
	c[0] = 0xFF
	if src[0] != 1 {
		t.Fatal("Clone aliases its source")
	}
	p.Put(c)

	// A warm Clone is a pool hit and allocates nothing.
	before := p.Stats()
	if n := testing.AllocsPerRun(200, func() { p.Put(p.Clone(src)) }); n != 0 {
		t.Fatalf("warm Clone: %v allocs/op, want 0", n)
	}
	if s := p.Stats(); s.Misses != before.Misses || s.Hits == before.Hits {
		t.Fatalf("warm Clone missed the pool: before %+v, after %+v", before, s)
	}

	empty := p.Clone(nil)
	if empty == nil || len(empty) != 0 {
		t.Fatalf("Clone(nil) = %#v, want a pooled empty buffer", empty)
	}
	p.Put(empty)
	if err := p.AssertBalanced(0); err != nil {
		t.Fatal(err)
	}
}

func TestNilPoolDegradesToMake(t *testing.T) {
	var p *Pool
	b := p.Get(128)
	if len(b) != 128 {
		t.Fatalf("nil pool Get length = %d", len(b))
	}
	p.Put(b) // no-op, must not panic
	if s := p.Stats(); s != (PoolStats{}) {
		t.Fatalf("nil pool stats = %+v", s)
	}
}

// TestPoolOutOfClassStats: traffic the pool cannot serve must stay visible
// in Stats — a hot path full of oversized frames would otherwise look like
// a healthy pool.
func TestPoolOutOfClassStats(t *testing.T) {
	p := NewPool()
	big := p.Get(1 << 20)  // above the largest class: plain make
	p.Put(big)             // capacity fits no class: dropped to the GC
	p.Put(make([]byte, 8)) // below the smallest class: dropped too
	s := p.Stats()
	if s.OversizeGets != 1 {
		t.Fatalf("OversizeGets = %d, want 1", s.OversizeGets)
	}
	if s.DroppedPuts != 2 {
		t.Fatalf("DroppedPuts = %d, want 2", s.DroppedPuts)
	}
	if s.Free != 0 || s.Puts != 0 {
		t.Fatalf("stats = %+v, want nothing pooled", s)
	}
}

// TestPoolPoisonOnRelease: race builds overwrite released buffers so
// use-after-release fails loudly. Meaningful only under `go test -race`.
func TestPoolPoisonOnRelease(t *testing.T) {
	if !poolPoison {
		t.Skip("poisoning is enabled only under -race")
	}
	p := NewPool()
	b := p.Get(64)
	for i := range b {
		b[i] = 0xAB
	}
	p.Put(b)
	for i, v := range b {
		if v != 0xDD {
			t.Fatalf("released buffer byte %d = %#x, want poison 0xDD", i, v)
		}
	}
}

// TestPoolAliasingSafety exercises the ownership contract end to end: a
// Packet decoded from a pooled frame aliases the buffer, so a payload
// retained across the frame's release must be copied first. The copy must
// survive the buffer being recycled into a new, different frame.
// Run under -race as part of the tier-1 suite.
func TestPoolAliasingSafety(t *testing.T) {
	pool := NewPool()
	params := &RoCEParams{DestQP: 7, PSN: 1}

	payload := bytes.Repeat([]byte{0xAB}, 256)
	frame := BuildWriteOnlyInto(pool, params, 0x1000, 0x42, payload)

	var pkt Packet
	if err := pkt.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pkt.Payload, payload) {
		t.Fatal("decoded payload mismatch before release")
	}

	// Copy-on-retain: the only safe way to keep the payload past Put.
	retained := pool.Get(len(pkt.Payload))
	copy(retained, pkt.Payload)

	pool.Put(frame)

	// Recycle the same buffer into a different frame with a different fill.
	other := bytes.Repeat([]byte{0xCD}, 256)
	frame2 := BuildWriteOnlyInto(pool, params, 0x2000, 0x43, other)
	if &frame[0] != &frame2[0] {
		t.Fatal("pool did not recycle the released buffer (test needs same-class reuse)")
	}

	// The retained copy is intact; the live view over the released buffer
	// is not — which is exactly why the contract demands the copy.
	if !bytes.Equal(retained, payload) {
		t.Fatal("retained copy corrupted by buffer reuse")
	}
	if bytes.Equal(pkt.Payload, payload) {
		t.Fatal("stale Packet view survived reuse; expected it to observe the rebuild")
	}
	pool.Put(retained)
	pool.Put(frame2)
}

// TestPooledBuildZeroAlloc is the hard gate behind the 0 allocs/op
// acceptance criterion: a warm pooled build/release cycle must not allocate.
func TestPooledBuildZeroAlloc(t *testing.T) {
	pool := NewPool()
	params := &RoCEParams{DestQP: 1}
	payload := make([]byte, 1500)
	// Warm every class this cycle touches.
	pool.Put(BuildWriteOnlyInto(pool, params, 0x1000, 0x42, payload))

	if n := testing.AllocsPerRun(200, func() {
		frame := BuildWriteOnlyInto(pool, params, 0x1000, 0x42, payload)
		pool.Put(frame)
	}); n != 0 {
		t.Fatalf("pooled BuildWriteOnlyInto: %v allocs/op, want 0", n)
	}

	pool.Put(BuildFetchAddInto(pool, params, 0x1000, 0x42, 1))
	if n := testing.AllocsPerRun(200, func() {
		frame := BuildFetchAddInto(pool, params, 0x1000, 0x42, 1)
		pool.Put(frame)
	}); n != 0 {
		t.Fatalf("pooled BuildFetchAddInto: %v allocs/op, want 0", n)
	}
}

// TestDecodeZeroAlloc gates the zero-copy decode path.
func TestDecodeZeroAlloc(t *testing.T) {
	frame := BuildWriteOnlyInto(DefaultPool, &RoCEParams{DestQP: 1}, 0, 1, make([]byte, 1500))
	var pkt Packet
	if n := testing.AllocsPerRun(200, func() {
		if err := pkt.DecodeFromBytes(frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("DecodeFromBytes: %v allocs/op, want 0", n)
	}
}

// TestPoolTraceReportGroupsStacks covers the leak report a failing balance
// check prints under GEM_POOL_TRACE=1: one section per distinct Get stack,
// ordered by count and then by stack, whatever the map order.
func TestPoolTraceReportGroupsStacks(t *testing.T) {
	t.Setenv("GEM_POOL_TRACE", "1")
	p := NewPool()
	var held [][]byte
	for i := 0; i < 4; i++ {
		held = append(held, p.Get(64<<i))
	}
	// Each report walks the trace map afresh, in a new random order.
	for range 8 {
		err := p.AssertBalanced(0)
		if err == nil {
			t.Fatal("four outstanding buffers passed the balance check")
		}
		sections := strings.Split(err.Error(), "\n--- ")[1:]
		if len(sections) != len(held) {
			t.Fatalf("%d report sections for %d outstanding buffers:\n%s", len(sections), len(held), err)
		}
		if !slices.IsSorted(sections) {
			t.Fatalf("report sections out of order:\n%s", err)
		}
	}
	for _, b := range held {
		p.Put(b)
	}
}
