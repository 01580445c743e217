package netsim

import (
	"math"
	"testing"

	"gem/internal/sim"
	"gem/internal/wire"
)

func twoHosts(seed int64, cfg LinkConfig) (*Net, *Host, *Host, *Port, *Port) {
	n := New(seed)
	a := NewHost("a", 1)
	b := NewHost("b", 2)
	pa, pb := n.Connect(a, b, cfg)
	return n, a, b, pa, pb
}

// testFrame draws a zeroed n-byte frame from the pool: receivers recycle
// whatever they consume, and the package leak check audits the pool ledger,
// so test frames must come from it (pooled buffers carry stale bytes).
func testFrame(n int) []byte {
	f := wire.DefaultPool.Get(n)
	for i := range f {
		f[i] = 0
	}
	return f
}

func TestFrameDelivery(t *testing.T) {
	n, _, b, pa, _ := twoHosts(1, Link40G())
	var got []byte
	// Copy-on-retain: the frame is recycled (and poisoned under -race)
	// after the handler returns.
	b.Handler = func(_ *Port, f []byte) { got = append([]byte(nil), f...) }
	frame := testFrame(100)
	frame[0] = 0xAA
	pa.Send(frame)
	n.Engine.Run()
	if got == nil || got[0] != 0xAA {
		t.Fatal("frame not delivered")
	}
	if b.CPUOps != 1 {
		t.Fatalf("CPUOps = %d", b.CPUOps)
	}
}

func TestSerializationPlusPropagationLatency(t *testing.T) {
	cfg := LinkConfig{RateBps: 40e9, Propagation: 250}
	n, _, b, pa, _ := twoHosts(1, cfg)
	var at sim.Time
	b.Handler = func(_ *Port, _ []byte) { at = n.Engine.Now() }
	frame := testFrame(1500)
	pa.Send(frame)
	n.Engine.Run()
	// (1500+24)*8 bits / 40e9 bps = 304.8 ns serialization + 250 ns prop.
	want := sim.Time(304 + 250)
	if at < want || at > want+2 {
		t.Fatalf("arrival at %d ns, want ≈%d", at, want)
	}
}

func TestBackToBackFramesSerialize(t *testing.T) {
	cfg := LinkConfig{RateBps: 10e9, Propagation: 0}
	n, _, b, pa, _ := twoHosts(1, cfg)
	var arrivals []sim.Time
	b.Handler = func(_ *Port, _ []byte) { arrivals = append(arrivals, n.Engine.Now()) }
	for i := 0; i < 3; i++ {
		pa.Send(testFrame(1226)) // 1226+24=1250B → 1 µs at 10 Gbps
	}
	n.Engine.Run()
	if len(arrivals) != 3 {
		t.Fatalf("delivered %d frames", len(arrivals))
	}
	for i, at := range arrivals {
		want := sim.Time((i + 1) * 1000)
		if at != want {
			t.Fatalf("frame %d arrived at %v, want %v", i, at, want)
		}
	}
}

func TestLineRateThroughput(t *testing.T) {
	cfg := LinkConfig{RateBps: 40e9, Propagation: 250, TxQueueFrames: 100000}
	n, _, b, pa, pb := twoHosts(1, cfg)
	const frames = 1000
	for i := 0; i < frames; i++ {
		pa.Send(testFrame(1500))
	}
	n.Engine.Run()
	if b.Received != frames {
		t.Fatalf("received %d/%d", b.Received, frames)
	}
	// Wire throughput should be ~40 Gbps over the busy period.
	gbps := float64(pb.RxMeter.Bytes) * 8 / float64(n.Engine.Now()) // bits per ns
	if math.Abs(gbps-40) > 1 {
		t.Fatalf("throughput = %.2f Gbps, want ≈40", gbps)
	}
}

func TestTxQueueOverflowDrops(t *testing.T) {
	cfg := LinkConfig{RateBps: 1e9, Propagation: 0, TxQueueFrames: 4}
	n, _, b, pa, _ := twoHosts(1, cfg)
	sent := 0
	for i := 0; i < 10; i++ {
		if pa.Send(testFrame(1000)) {
			sent++
		}
	}
	n.Engine.Run()
	// 1 transmitting + 4 queued = 5 accepted.
	if sent != 5 {
		t.Fatalf("accepted %d, want 5", sent)
	}
	if pa.TxDrops != 5 {
		t.Fatalf("TxDrops = %d, want 5", pa.TxDrops)
	}
	if b.Received != 5 {
		t.Fatalf("received %d, want 5", b.Received)
	}
}

func TestFullDuplexIndependence(t *testing.T) {
	cfg := LinkConfig{RateBps: 10e9, Propagation: 100}
	n, a, b, pa, pb := twoHosts(1, cfg)
	var aAt, bAt sim.Time
	a.Handler = func(_ *Port, _ []byte) { aAt = n.Engine.Now() }
	b.Handler = func(_ *Port, _ []byte) { bAt = n.Engine.Now() }
	pa.Send(testFrame(1226))
	pb.Send(testFrame(1226))
	n.Engine.Run()
	// Both directions should complete at the same time: no shared medium.
	if aAt != bAt || aAt == 0 {
		t.Fatalf("duplex arrivals differ: %v vs %v", aAt, bAt)
	}
}

func TestPortMetadata(t *testing.T) {
	n := New(1)
	a, b, c := NewHost("a", 1), NewHost("b", 2), NewHost("c", 3)
	p1, _ := n.Connect(a, b, Link40G())
	p2, pc := n.Connect(a, c, Link40G())
	if p1.Index() != 0 || p2.Index() != 1 {
		t.Fatalf("indices = %d,%d", p1.Index(), p2.Index())
	}
	if p2.Peer() != pc || pc.Peer() != p2 {
		t.Fatal("peer wiring broken")
	}
	if len(n.Ports(a)) != 2 || len(n.Ports(c)) != 1 {
		t.Fatal("ports map wrong")
	}
	if p1.dev != Device(a) {
		t.Fatal("device binding wrong")
	}
	if p1.String() != "a[0]" {
		t.Fatalf("String = %q", p1.String())
	}
}

func TestSendOnUnconnectedPortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p := &Port{dev: NewHost("x", 1), cfg: Link40G()}
	frame := testFrame(10)
	defer wire.DefaultPool.Put(frame) // Send panics before taking ownership
	p.Send(frame)
}

func TestConnectZeroRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n := New(1)
	n.Connect(NewHost("a", 1), NewHost("b", 2), LinkConfig{})
}

func TestHostAddresses(t *testing.T) {
	h := NewHost("h", 0x010203)
	if h.IP != (wire.IP4{10, 1, 2, 3}) {
		t.Fatalf("IP = %v", h.IP)
	}
	if h.MAC.Uint64()&0xFFFFFF != 0x010203 {
		t.Fatalf("MAC = %v", h.MAC)
	}
}

func TestMetersCountFramingOverhead(t *testing.T) {
	n, _, _, pa, pb := twoHosts(1, Link40G())
	pa.Send(testFrame(100))
	n.Engine.Run()
	want := int64(100 + wire.EthernetFramingOverhead)
	if pa.TxMeter.Bytes != want || pb.RxMeter.Bytes != want {
		t.Fatalf("meters = %d/%d, want %d", pa.TxMeter.Bytes, pb.RxMeter.Bytes, want)
	}
}

func TestQueuedFrames(t *testing.T) {
	cfg := LinkConfig{RateBps: 1e9, Propagation: 0}
	n, _, _, pa, _ := twoHosts(1, cfg)
	for i := 0; i < 5; i++ {
		pa.Send(testFrame(1000))
	}
	if got := pa.txQueue.Len(); got != 4 {
		t.Fatalf("queued = %d, want 4", got)
	}
	n.Engine.Run()
	if got := pa.txQueue.Len(); got != 0 {
		t.Fatalf("queued = %d after drain", got)
	}
}

func TestLossRateStatistics(t *testing.T) {
	cfg := LinkConfig{RateBps: 40e9, Propagation: 0, LossRate: 0.1, TxQueueFrames: 1 << 20}
	n, _, b, pa, _ := twoHosts(7, cfg)
	const frames = 20000
	for i := 0; i < frames; i++ {
		pa.Send(testFrame(100))
	}
	n.Engine.Run()
	lost := frames - int(b.Received)
	if lost != int(pa.LossDrops) {
		t.Fatalf("loss accounting mismatch: %d vs %d", lost, pa.LossDrops)
	}
	rate := float64(lost) / frames
	if rate < 0.08 || rate > 0.12 {
		t.Fatalf("measured loss %.3f, configured 0.10", rate)
	}
}

func TestZeroLossByDefault(t *testing.T) {
	n, _, b, pa, _ := twoHosts(7, Link40G())
	for i := 0; i < 1000; i++ {
		pa.Send(testFrame(100))
	}
	n.Engine.Run()
	if b.Received != 1000 || pa.LossDrops != 0 {
		t.Fatalf("default link lost frames: %d/%d", b.Received, 1000)
	}
}
