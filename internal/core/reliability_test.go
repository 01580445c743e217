package core

import (
	"math/rand"
	"testing"

	"gem/internal/netsim"
	"gem/internal/rnic"
	"gem/internal/sim"
	"gem/internal/switchsim"
	"gem/internal/wire"
)

// lossyBed wires a bed whose memory link drops frames with prob loss.
func lossyBed(t *testing.T, loss float64) *bed {
	t.Helper()
	n := netsim.New(7)
	sw := switchsim.New("tor", n.Engine, switchsim.Config{})
	h := netsim.NewHost("h", 1)
	hp, _ := n.Connect(sw, h, netsim.Link40G())
	memHost := netsim.NewHost("memsrv", 200)
	memNIC := rnic.New("memsrv-nic", memHost, rnic.Config{})
	lossy := netsim.Link40G()
	lossy.LossRate = loss
	sp, np := n.Connect(sw, memNIC, lossy)
	memNIC.Bind(n.Engine, np)
	sw.Bind(hp, sp)
	return &bed{
		net: n, sw: sw, hosts: []*netsim.Host{h},
		memNIC: memNIC, memHost: memHost, memPort: 1,
		memNICs: []*rnic.NIC{memNIC}, memHosts: []*netsim.Host{memHost},
		ctrl: NewController(sw), disp: NewDispatcher(),
	}
}

func TestRetransmitterRequiresAckReq(t *testing.T) {
	b := newBed(t, 1, switchsim.Config{}, rnic.Config{})
	ch := b.establish(t, 4096, rnic.PSNStrict, false)
	if _, err := NewRetransmitter(ch, 8); err == nil {
		t.Fatal("retransmitter accepted a channel without AckReq")
	}
}

func TestReliableFAAExactUnderLoss(t *testing.T) {
	// 2% loss on the memory link; the retransmitter must deliver an
	// exact count anyway — the E8c claim.
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
	b.disp.Register(ch, rt)
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if !b.disp.Dispatch(ctx) {
			ctx.Drop()
		}
	})
	const n = 400
	issued := 0
	// Pace sends within the window; CanSend gates against the replay
	// cache depth.
	b.net.Engine.Ticker(500*sim.Nanosecond, func() bool {
		for issued < n && rt.CanSend() {
			rt.FetchAdd(0, 1)
			issued++
		}
		return issued < n || rt.Unacked() > 0
	})
	b.net.Engine.Run()
	if rt.Unacked() != 0 {
		t.Fatalf("unacked = %d after drain", rt.Unacked())
	}
	v, err := b.memNIC.ReadCounter(ch.RKey, ch.Base)
	if err != nil {
		t.Fatal(err)
	}
	if v != n {
		t.Fatalf("remote counter = %d, want %d (retransmits %d, naks %d)",
			v, n, rt.Retransmits, rt.NaksSeen)
	}
	if rt.Retransmits == 0 {
		t.Fatal("suspicious: 2% loss but zero retransmits")
	}
}

func TestUnreliableFAAInaccurateUnderLoss(t *testing.T) {
	// Control for E8c: without the extension, the same loss rate loses
	// counts (tolerant QP, fire-and-forget).
	b := lossyBed(t, 0.05)
	ch, err := b.ctrl.Establish(ChannelSpec{
		SwitchPort: 1, NIC: b.memNIC,
		RegionBase: 0x1000, RegionSize: 4096,
		Mode: rnic.PSNTolerant,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) { ctx.Drop() })
	const n = 400
	for i := 0; i < n; i++ {
		ch.FetchAdd(0, 1)
	}
	b.net.Engine.Run()
	v, _ := b.memNIC.ReadCounter(ch.RKey, ch.Base)
	if v == n {
		t.Fatal("counter exact despite 5% loss and no reliability")
	}
	if v == 0 || v > n {
		t.Fatalf("counter = %d, want (0,%d)", v, n)
	}
}

func TestReliableWriteUnderLoss(t *testing.T) {
	b := lossyBed(t, 0.03)
	ch, err := b.ctrl.Establish(ChannelSpec{
		SwitchPort: 1, NIC: b.memNIC,
		RegionBase: 0x1000, RegionSize: 1 << 16,
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
	b.disp.Register(ch, rt)
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if !b.disp.Dispatch(ctx) {
			ctx.Drop()
		}
	})
	const n = 64
	issued := 0
	b.net.Engine.Ticker(1*sim.Microsecond, func() bool {
		for issued < n && rt.CanSend() {
			payload := []byte{byte(issued), byte(issued >> 8), 0xAB, 0xCD}
			rt.Write(issued*16, payload)
			issued++
		}
		return issued < n || rt.Unacked() > 0
	})
	b.net.Engine.Run()
	region := b.memNIC.LookupRegion(ch.RKey)
	for i := 0; i < n; i++ {
		got := region.Bytes()[i*16 : i*16+4]
		if got[0] != byte(i) || got[1] != byte(i>>8) || got[2] != 0xAB || got[3] != 0xCD {
			t.Fatalf("write %d corrupted/missing: % x", i, got)
		}
	}
}

func TestRetransmitterAckClearsWindow(t *testing.T) {
	b := newBed(t, 1, switchsim.Config{}, rnic.Config{})
	ch := b.establish(t, 4096, rnic.PSNStrict, true)
	rt, err := NewRetransmitter(ch, 4)
	if err != nil {
		t.Fatal(err)
	}
	b.disp.Register(ch, rt)
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if !b.disp.Dispatch(ctx) {
			ctx.Drop()
		}
	})
	rt.FetchAdd(0, 1)
	rt.FetchAdd(8, 2)
	if rt.Unacked() != 2 {
		t.Fatalf("unacked = %d", rt.Unacked())
	}
	b.net.Engine.Run()
	if rt.Unacked() != 0 {
		t.Fatalf("unacked = %d after acks", rt.Unacked())
	}
	if rt.Retransmits != 0 {
		t.Fatalf("retransmits = %d on a clean link", rt.Retransmits)
	}
	v0, _ := b.memNIC.ReadCounter(ch.RKey, ch.Base)
	v1, _ := b.memNIC.ReadCounter(ch.RKey, ch.Base+8)
	if v0 != 1 || v1 != 2 {
		t.Fatalf("counters = %d,%d", v0, v1)
	}
}

func TestRetransmitterForwardsToInner(t *testing.T) {
	b := newBed(t, 1, switchsim.Config{}, rnic.Config{})
	ch := b.establish(t, 4096, rnic.PSNStrict, true)
	rt, err := NewRetransmitter(ch, 4)
	if err != nil {
		t.Fatal(err)
	}
	inner := 0
	rt.Inner = handlerFunc(func(ctx *switchsim.Context, pkt *wire.Packet) {
		if pkt.BTH.Opcode == wire.OpAtomicAcknowledge {
			inner++
		}
		ctx.Drop()
	})
	b.disp.Register(ch, rt)
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if !b.disp.Dispatch(ctx) {
			ctx.Drop()
		}
	})
	rt.FetchAdd(0, 1)
	b.net.Engine.Run()
	if inner != 1 {
		t.Fatalf("inner saw %d atomic acks, want 1", inner)
	}
}

// SetShardRetransmitter chains the store behind a bare retransmitter, and
// keeps an Inner handler the caller wired first.
func TestSetShardRetransmitterInner(t *testing.T) {
	b := newBed(t, 1, switchsim.Config{}, rnic.Config{})
	ch := b.establish(t, 4096, rnic.PSNStrict, true)
	ss, err := NewStateStore(ch, StateStoreConfig{Counters: 8})
	if err != nil {
		t.Fatal(err)
	}

	bare, err := NewRetransmitter(ch, 4)
	if err != nil {
		t.Fatal(err)
	}
	ss.SetShardRetransmitter(0, bare)
	if bare.Inner != ResponseHandler(ss) {
		t.Fatalf("Inner = %v, want the store", bare.Inner)
	}

	wired, err := NewRetransmitter(ch, 4)
	if err != nil {
		t.Fatal(err)
	}
	wired.Inner = handlerFunc(func(ctx *switchsim.Context, _ *wire.Packet) { ctx.Drop() })
	ss.SetShardRetransmitter(0, wired)
	if _, ok := wired.Inner.(handlerFunc); !ok {
		t.Fatalf("Inner = %T, want the caller's handler kept", wired.Inner)
	}
}

// scriptedDrops is a deterministic fault injector: it drops the frames whose
// 0-based transmit index is listed, and nothing else.
type scriptedDrops struct {
	drop map[int]bool
	n    int
}

func (s *scriptedDrops) Transmit(_ sim.Time, _ *rand.Rand, _ []byte) (bool, sim.Duration) {
	d := s.drop[s.n]
	s.n++
	return d, 0
}

// ackDropper drops the first n atomic acknowledgements and passes everything
// else (in particular NAKs, which the NIC emits at receive time and thus
// interleave unpredictably with the execution-delayed atomic ACKs).
type ackDropper struct{ n int }

func (a *ackDropper) Transmit(_ sim.Time, _ *rand.Rand, frame []byte) (bool, sim.Duration) {
	if a.n > 0 {
		var pkt wire.Packet
		if pkt.DecodeFromBytes(frame) == nil && pkt.BTH.Opcode == wire.OpAtomicAcknowledge {
			a.n--
			return true, 0
		}
	}
	return false, 0
}

func TestNakImplicitlyAcksPrefix(t *testing.T) {
	// Four FAAs; the PSN-2 request and the atomic ACKs for PSNs 0 and 1 are
	// dropped. The NIC NAKs at PSN 2 when PSN 3 arrives, and that NAK is the
	// *only* feedback the retransmitter ever gets for the prefix: a NAK at n
	// means everything before n was received, so go-back-N must resend PSNs
	// 2..3 only. Resending the prefix too would show up as 4 retransmits
	// (and pointless duplicate execution at the server).
	b := newBed(t, 1, switchsim.Config{}, rnic.Config{})
	ch := b.establish(t, 4096, rnic.PSNStrict, true)
	rt, err := NewRetransmitter(ch, 8)
	if err != nil {
		t.Fatal(err)
	}
	b.disp.Register(ch, rt)
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if !b.disp.Dispatch(ctx) {
			ctx.Drop()
		}
	})
	b.memNIC.Port().Peer().SetFaultInjector(&scriptedDrops{drop: map[int]bool{2: true}})
	b.memNIC.Port().SetFaultInjector(&ackDropper{n: 2})
	for i := 0; i < 4; i++ {
		rt.FetchAdd(0, 1)
	}
	b.net.Engine.Run()
	if rt.NaksSeen != 1 {
		t.Fatalf("naks seen = %d, want 1", rt.NaksSeen)
	}
	if rt.Retransmits != 2 {
		t.Fatalf("retransmits = %d, want 2 (NAK at 2 implicitly acks 0..1)", rt.Retransmits)
	}
	if rt.Unacked() != 0 {
		t.Fatalf("unacked = %d after drain", rt.Unacked())
	}
	if v, _ := b.memNIC.ReadCounter(ch.RKey, ch.Base); v != 4 {
		t.Fatalf("counter = %d, want 4", v)
	}
}

// jitterSpikes delays every frame by spike with probability rate — the E9d
// fault model, reimplemented locally so core does not depend on the faults
// package.
type jitterSpikes struct {
	rate  float64
	spike sim.Duration
}

func (j *jitterSpikes) Transmit(_ sim.Time, rng *rand.Rand, _ []byte) (bool, sim.Duration) {
	if rng.Float64() < j.rate {
		return false, j.spike
	}
	return false, 0
}

func TestAdaptiveRTOBeatsFixedUnderSpikes(t *testing.T) {
	// Window 1 so the retransmit timer is the only recovery mechanism (a
	// pipelined window would let the NIC's NAK path recover delayed frames
	// at RTT timescale and mask the RTO policy entirely).
	run := func(adaptive bool) (retransmits int64, v uint64) {
		b := newBed(t, 1, switchsim.Config{}, rnic.Config{})
		ch := b.establish(t, 4096, rnic.PSNStrict, true)
		rt, err := NewRetransmitter(ch, 1)
		if err != nil {
			t.Fatal(err)
		}
		if adaptive {
			rt.EnableAdaptiveRTO()
		}
		b.disp.Register(ch, rt)
		b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
			if !b.disp.Dispatch(ctx) {
				ctx.Drop()
			}
		})
		b.memNIC.Port().Peer().SetFaultInjector(&jitterSpikes{rate: 0.2, spike: sim.Millisecond})
		const n = 100
		issued := 0
		b.net.Engine.Ticker(2*sim.Microsecond, func() bool {
			for issued < n && rt.CanSend() {
				rt.FetchAdd(0, 1)
				issued++
			}
			return issued < n || rt.Unacked() > 0
		})
		b.net.Engine.Run()
		v, _ = b.memNIC.ReadCounter(ch.RKey, ch.Base)
		return rt.Retransmits, v
	}
	fixedRexmit, fixedV := run(false)
	adaptiveRexmit, adaptiveV := run(true)
	if fixedV != 100 || adaptiveV != 100 {
		t.Fatalf("counts lost: fixed=%d adaptive=%d, want 100", fixedV, adaptiveV)
	}
	if fixedRexmit == 0 {
		t.Fatal("spikes never triggered the fixed timer")
	}
	if adaptiveRexmit >= fixedRexmit {
		t.Fatalf("adaptive RTO did not win: %d vs fixed %d retransmits",
			adaptiveRexmit, fixedRexmit)
	}
}
