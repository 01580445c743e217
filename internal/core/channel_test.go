package core

import (
	"testing"
	"testing/quick"

	"gem/internal/rnic"
	"gem/internal/sim"
	"gem/internal/switchsim"
)

func TestBandwidthCapLimitsRate(t *testing.T) {
	b := newBed(t, 1, switchsim.Config{}, rnic.Config{})
	ch := b.establish(t, 1<<20, rnic.PSNTolerant, false)
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) { ctx.Drop() })
	ch.SetBandwidthCap(1e9, 16<<10) // 1 Gbps

	payload := make([]byte, 1024)
	sent := 0
	b.net.Engine.Ticker(200*sim.Nanosecond, func() bool { // offered ≈44 Gbps
		if ch.Write((sent%512)*1024, payload) {
			sent++
		}
		return b.net.Engine.Now() < sim.Time(2*sim.Millisecond)
	})
	b.net.Engine.RunUntil(sim.Time(2 * sim.Millisecond))
	gbps := float64(ch.RequestMeter.Bytes) * 8 / float64(b.net.Engine.Now()) // bits per ns
	if gbps > 1.15 {
		t.Fatalf("capped channel pushed %.2f Gbps", gbps)
	}
	if gbps < 0.7 {
		t.Fatalf("cap too strict: %.2f Gbps of a 1 Gbps budget", gbps)
	}
	if ch.CapDrops == 0 {
		t.Fatal("cap never refused anything at 44x overload")
	}
}

func TestBandwidthCapRemoval(t *testing.T) {
	b := newBed(t, 1, switchsim.Config{}, rnic.Config{})
	ch := b.establish(t, 1<<16, rnic.PSNTolerant, false)
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) { ctx.Drop() })
	ch.SetBandwidthCap(1, 1) // absurdly tight: everything refused
	if ch.Write(0, make([]byte, 512)) {
		t.Fatal("write passed a 1 bps cap")
	}
	ch.SetBandwidthCap(0, 0) // remove
	if !ch.Write(0, make([]byte, 512)) {
		t.Fatal("write refused after cap removal")
	}
}

// Property: a token bucket never grants more than burst + rate*elapsed bits
// over any request schedule.
func TestPropTokenBucketConservation(t *testing.T) {
	f := func(gaps []uint16, sizes []uint8) bool {
		tb := &tokenBucket{bps: 1e9, burst: 8 * 8192, tokens: 8 * 8192}
		now := sim.Time(0)
		granted := 0.0
		n := len(gaps)
		if len(sizes) < n {
			n = len(sizes)
		}
		for i := 0; i < n; i++ {
			now = now.Add(sim.Duration(gaps[i]))
			size := int(sizes[i]) + 1
			if tb.allow(now, size) {
				granted += float64((size + 24) * 8)
			}
		}
		budget := 8*8192 + 1e9*sim.Duration(now).Seconds() + 1
		return granted <= budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the packet-buffer ring cursors always satisfy
// emitNext <= readNext <= tail and depth <= capacity, across random
// admit/response interleavings driven by real traffic.
func TestPropPacketBufferCursorInvariants(t *testing.T) {
	swCfg := switchsim.Config{BufferBytes: 256 << 10}
	pbCfg := PacketBufferConfig{HighWaterBytes: 8 << 10, LowWaterBytes: 4 << 10}
	b, pb := pktbufBed(t, swCfg, pbCfg)
	bad := ""
	check := func() {
		tail := pb.cursors.Get(regTail)
		rn := pb.cursors.Get(regReadNext)
		en := pb.cursors.Get(regEmitNext)
		if !(en <= rn && rn <= tail) {
			bad = "cursor ordering violated"
		}
		if int(tail-en) > pb.total {
			bad = "ring over capacity"
		}
	}
	b.net.Engine.Ticker(500*sim.Nanosecond, func() bool {
		check()
		return bad == "" && b.net.Engine.Pending() > 1
	})
	for i := 0; i < 400; i++ {
		b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[2], 1500, uint16(i%7+1)))
		b.net.Ports(b.hosts[1])[0].Send(dataFrame(b.hosts[1], b.hosts[2], 1500, uint16(i%5+1)))
	}
	b.net.Engine.Run()
	check()
	if bad != "" {
		t.Fatal(bad)
	}
	if b.hosts[2].Received != 800 {
		t.Fatalf("delivered %d/800", b.hosts[2].Received)
	}
}
