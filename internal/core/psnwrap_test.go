package core

import (
	"testing"

	"gem/internal/rnic"
	"gem/internal/sim"
	"gem/internal/switchsim"
)

// 24-bit PSN wraparound coverage: real RoCE streams run forever, so every
// PSN consumer — the channel's register, the transport's outstanding-op
// matching, the retransmitter's window arithmetic, the responder's expected
// PSN — must mask correctly across 0xFFFFFF → 0. These tests pin each
// layer at the wrap; the SetExpectedPSN hook plays the ModifyQP rq_psn
// attribute so both ends start the stream just below it.

func TestChannelNextPSNWraparound(t *testing.T) {
	b := newBed(t, 1, switchsim.Config{}, rnic.Config{})
	ch := b.establish(t, 4096, rnic.PSNTolerant, false)
	ch.SetPSN(0xFFFFFE)
	if got := ch.NextPSN(3); got != 0xFFFFFE {
		t.Fatalf("NextPSN returned %#x, want 0xFFFFFE", got)
	}
	if got := ch.PSN(); got != 1 {
		t.Fatalf("PSN after consuming across the wrap = %#x, want 1", got)
	}
	// SetPSN must mask: resync PSNs come off the wire 24-bit today, but
	// the register contract must not depend on the caller's hygiene.
	ch.SetPSN(0x1000005)
	if got := ch.PSN(); got != 5 {
		t.Fatalf("SetPSN did not mask: PSN = %#x, want 5", got)
	}
}

func TestStateStoreAcrossPSNWrap(t *testing.T) {
	// Cumulative (FIFO) completion across the wrap: an atomic ACK at a
	// post-wrap PSN must retire the pre-wrap FAAs before it.
	b, ss := stateBed(t, rnic.Config{}, StateStoreConfig{Counters: 64, MaxOutstanding: 8})
	ch := ss.chans[0]
	ch.SetPSN(0xFFFFF8)
	b.memNIC.LookupQP(ch.PeerQPN).SetExpectedPSN(0xFFFFF8)
	const n = 200
	for i := 0; i < n; i++ {
		b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[1], 256, uint16(i%8+1)))
	}
	b.net.Engine.Run()
	if ch.PSN() >= 0xFFFFF8 {
		t.Fatalf("PSN stream never wrapped (PSN %#x)", ch.PSN())
	}
	if got := remoteCounterSum(b, ss); got != n {
		t.Fatalf("remote counters = %d, want %d (stats %+v)", got, n, ss.Stats)
	}
	if p := ss.Transport().Pending(); p != 0 {
		t.Fatalf("transport still holds %d WQEs after drain", p)
	}
	if out := ss.Outstanding(); out != 0 {
		t.Fatalf("credits leaked across the wrap: outstanding = %d", out)
	}
}

// drainDeadline bounds in simulated time the drains that run until a
// stream is fully acknowledged. Each ends within 7 ms of simulated time when
// the stream is healthy. A wedged stream (a PSN comparison broken at the
// wrap, say) keeps retrying, and its ticker re-arms while Unacked() > 0, so
// Run would spin until go test's timeout; RunUntil stops it here and the
// drain's assertions fail in seconds.
const drainDeadline = sim.Time(100 * sim.Millisecond)

func TestPacketBufferAcrossPSNWrap(t *testing.T) {
	// Exact-PSN completion across the wrap on both striped channels, under
	// enough load that WRITEs and multi-entry READ windows straddle it.
	swCfg := switchsim.Config{BufferBytes: 128 << 10}
	pbCfg := PacketBufferConfig{HighWaterBytes: 64 << 10, LowWaterBytes: 32 << 10}
	b, pb := pktbufBed(t, swCfg, pbCfg)
	for i, ch := range pb.chans {
		start := uint32(0xFFFFF0 + uint32(i)*3) // distinct wrap points
		ch.SetPSN(start)
		b.memNICs[i].LookupQP(ch.PeerQPN).SetExpectedPSN(start)
	}
	const perSender = 300
	for i := 0; i < perSender; i++ {
		b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[2], 1500, 1))
		b.net.Ports(b.hosts[1])[0].Send(dataFrame(b.hosts[1], b.hosts[2], 1500, 2))
	}
	b.net.Engine.RunUntil(drainDeadline)
	if got := b.hosts[2].Received; got != 2*perSender {
		t.Fatalf("received %d/%d across the wrap (stats %+v)", got, 2*perSender, pb.Stats)
	}
	if pb.Stats.Stored == 0 || pb.Stats.Loaded != pb.Stats.Stored {
		t.Fatalf("stored %d loaded %d: ring did not cycle through the wrap",
			pb.Stats.Stored, pb.Stats.Loaded)
	}
	if pb.Stats.StaleResponses != 0 {
		t.Fatalf("exact matching broke at the wrap: %d stale responses", pb.Stats.StaleResponses)
	}
	for i := 0; i < len(pb.chans); i++ {
		if p := pb.Transport().Shard(i).Pending(); p != 0 {
			t.Fatalf("channel %d transport still holds %d WQEs", i, p)
		}
	}
}

func TestRetransmitterAcrossPSNWrap(t *testing.T) {
	// Go-back-N under loss with the window straddling the wrap: NAK
	// prefix-retire, cumulative ACK arithmetic and timer-driven resends
	// all run on verbs.PSNAfter and must survive 0xFFFFFF → 0.
	b := lossyBed(t, 0.02)
	ch, err := b.ctrl.Establish(ChannelSpec{
		SwitchPort: 1, NIC: b.memNIC,
		RegionBase: 0x1000, RegionSize: 4096,
		Mode: rnic.PSNStrict, AckReq: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRetransmitter(ch, 8)
	if err != nil {
		t.Fatal(err)
	}
	rt.Timeout = 20 * sim.Microsecond
	ch.SetPSN(0xFFFFC0)
	b.memNIC.LookupQP(ch.PeerQPN).SetExpectedPSN(0xFFFFC0)
	b.disp.Register(ch, rt)
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if !b.disp.Dispatch(ctx) {
			ctx.Drop()
		}
	})
	const n = 400
	issued := 0
	b.net.Engine.Ticker(500*sim.Nanosecond, func() bool {
		for issued < n && rt.CanSend() {
			rt.FetchAdd(0, 1)
			issued++
		}
		return issued < n || rt.Unacked() > 0
	})
	b.net.Engine.RunUntil(drainDeadline)
	if rt.Unacked() != 0 {
		t.Fatalf("unacked = %d after drain", rt.Unacked())
	}
	v, err := b.memNIC.ReadCounter(ch.RKey, ch.Base)
	if err != nil {
		t.Fatal(err)
	}
	if v != n {
		t.Fatalf("remote counter = %d, want %d across the wrap (rexmit %d, naks %d, resyncs %d)",
			v, n, rt.Retransmits, rt.NaksSeen, rt.Resyncs)
	}
	if rt.Retransmits == 0 {
		t.Fatal("suspicious: 2% loss but zero retransmits near the wrap")
	}
}
