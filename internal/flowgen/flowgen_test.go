package flowgen

import (
	"math"
	"testing"

	"gem/internal/netsim"
	"gem/internal/sim"
)

func pair() (*netsim.Net, *netsim.Host, *netsim.Host) {
	n := netsim.New(3)
	a, b := netsim.NewHost("a", 1), netsim.NewHost("b", 2)
	n.Connect(a, b, netsim.Link40G())
	return n, a, b
}

func TestCBRRateAccuracy(t *testing.T) {
	n, a, b := pair()
	cbr := &CBR{
		Src: a, Dst: b, Port: n.Ports(a)[0],
		FrameLen: 1500, RateBps: 10e9,
	}
	cbr.Start(n.Engine, 0)
	n.Engine.RunFor(1 * sim.Millisecond)
	cbr.Stop()
	n.Engine.Run()
	gbps := float64(n.Ports(b)[0].RxMeter.Bytes) * 8 / float64(sim.Millisecond) // bits per ns
	if math.Abs(gbps-10) > 0.5 {
		t.Fatalf("CBR delivered %.2f Gbps, want ≈10", gbps)
	}
	if cbr.SendFails != 0 {
		t.Fatalf("send fails = %d", cbr.SendFails)
	}
}

func TestCBRCountBound(t *testing.T) {
	n, a, b := pair()
	cbr := &CBR{Src: a, Dst: b, Port: n.Ports(a)[0], FrameLen: 100, RateBps: 40e9}
	cbr.Start(n.Engine, 25)
	n.Engine.Run()
	if cbr.Sent != 25 || b.Received != 25 {
		t.Fatalf("sent=%d received=%d, want 25", cbr.Sent, b.Received)
	}
}

func TestCBRFlowSpread(t *testing.T) {
	n, a, b := pair()
	seen := map[uint16]bool{}
	b.Handler = func(_ *netsim.Port, frame []byte) {
		seen[uint16(frame[34])<<8|uint16(frame[35])] = true // UDP src port
	}
	cbr := &CBR{Src: a, Dst: b, Port: n.Ports(a)[0], FrameLen: 100, RateBps: 40e9, FlowCount: 16}
	cbr.Start(n.Engine, 200)
	n.Engine.Run()
	if len(seen) < 10 {
		t.Fatalf("only %d distinct flows of 16", len(seen))
	}
}

func TestPingPong(t *testing.T) {
	n, a, b := pair()
	pp := &PingPong{
		Engine: n.Engine, A: a, B: b,
		APort: n.Ports(a)[0], BPort: n.Ports(b)[0],
		FrameLen: 64,
	}
	doneCalled := false
	pp.Run(10, func() { doneCalled = true })
	n.Engine.Run()
	if len(pp.RTTs) != 10 {
		t.Fatalf("RTT samples = %d, want 10", len(pp.RTTs))
	}
	if !doneCalled {
		t.Fatal("done callback not invoked")
	}
	// On a direct 40G link: one-way = ser(64+24 B) + 250ns prop ≈ 268 ns.
	ow := pp.MedianOneWay()
	if ow < 250 || ow > 300 {
		t.Fatalf("one-way = %v, want ≈268ns", ow)
	}
}

func TestPingPongLatencyGrowsWithSize(t *testing.T) {
	prev := sim.Duration(0)
	for _, size := range []int{64, 256, 1024} {
		n, a, b := pair()
		pp := &PingPong{Engine: n.Engine, A: a, B: b,
			APort: n.Ports(a)[0], BPort: n.Ports(b)[0], FrameLen: size}
		pp.Run(5, nil)
		n.Engine.Run()
		ow := pp.MedianOneWay()
		if ow <= prev {
			t.Fatalf("latency not increasing with size: %v at %dB", ow, size)
		}
		prev = ow
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(1, 10000, 1.2)
	counts := map[int]int{}
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	// Flow 0 must be much more popular than the tail.
	if counts[0] < draws/20 {
		t.Fatalf("flow 0 drawn %d times; zipf not skewed", counts[0])
	}
	// And the working set should be far smaller than n.
	if len(counts) > 9000 {
		t.Fatalf("distinct flows = %d; no skew", len(counts))
	}
}

func TestZipfClampsBadSkew(t *testing.T) {
	z := NewZipf(1, 100, 0.5) // invalid s, must not panic
	for i := 0; i < 100; i++ {
		if v := z.Next(); v < 0 || v >= 100 {
			t.Fatalf("draw %d out of range", v)
		}
	}
}

func TestFlowIDNonZeroPorts(t *testing.T) {
	for _, i := range []int{0, 1, 65535, 1 << 20} {
		s, d := FlowID(i)
		if s == 0 || d == 0 {
			t.Fatalf("flow %d produced zero port", i)
		}
	}
}

func TestFlowIDCollisionFree(t *testing.T) {
	seen := map[[2]uint16]bool{}
	for i := 0; i < 200000; i++ {
		s, d := FlowID(i)
		k := [2]uint16{s, d}
		if seen[k] {
			t.Fatalf("flow ids collide at %d", i)
		}
		seen[k] = true
	}
}
