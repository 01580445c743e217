package faults

import (
	"testing"

	"gem/internal/netsim"
	"gem/internal/rnic"
	"gem/internal/sim"
	"gem/internal/wire"
)

// hostPair wires two plain hosts over one 40G link and returns the sender's
// port (install injectors on it for the a→b direction).
func hostPair(seed int64) (*netsim.Net, *netsim.Host, *netsim.Host, *netsim.Port) {
	n := netsim.New(seed)
	a := netsim.NewHost("a", 1)
	b := netsim.NewHost("b", 2)
	pa, _ := n.Connect(a, b, netsim.Link40G())
	return n, a, b, pa
}

// memRig wires a plain host to a memory-server NIC so tests can inject
// hand-built RoCE frames through a faulty link.
type memRig struct {
	net    *netsim.Net
	host   *netsim.Host
	nic    *rnic.NIC
	hp     *netsim.Port // host-side port (host→NIC injector goes here)
	region *rnic.Region
	qp     *rnic.QP
}

func newMemRig(seed int64) *memRig {
	n := netsim.New(seed)
	h := netsim.NewHost("h", 1)
	sh := netsim.NewHost("srv", 2)
	nic := rnic.New("srv-nic", sh, rnic.Config{})
	hp, np := n.Connect(h, nic, netsim.Link40G())
	nic.Bind(n.Engine, np)
	region := nic.RegisterMemory(0x10000, 4096)
	qp := nic.CreateQP(rnic.PSNTolerant)
	qp.PeerMAC, qp.PeerIP, qp.PeerQPN = h.MAC, h.IP, 0x77
	return &memRig{net: n, host: h, nic: nic, hp: hp, region: region, qp: qp}
}

func (r *memRig) faaFrame(psn uint32, delta uint64) []byte {
	p := wire.RoCEParams{
		SrcMAC: r.host.MAC, DstMAC: r.nic.MAC,
		SrcIP: r.host.IP, DstIP: r.nic.IP,
		UDPSrcPort: 0xC123, DestQP: r.qp.Number, PSN: psn,
	}
	return wire.BuildFetchAddInto(wire.DefaultPool, &p, r.region.Base, r.region.RKey, delta)
}

func sendBurst(t *testing.T, n *netsim.Net, a, b *netsim.Host, p *netsim.Port, frames int) {
	t.Helper()
	sent := 0
	n.Engine.Ticker(1*sim.Microsecond, func() bool {
		p.Send(wire.BuildDataFrame(a.MAC, b.MAC, a.IP, b.IP, 1000, 2000, 256, nil))
		sent++
		return sent < frames
	})
	n.Engine.Run()
}

// burstyLoss returns a model with ~1% average loss concentrated in short
// bursts: mean burst length 1/PBadToGood = 5 frames.
func burstyLoss() *GilbertElliott {
	return &GilbertElliott{
		PGoodToBad: 0.002, PBadToGood: 0.2,
		LossGood: 0, LossBad: 0.5,
	}
}

func TestGilbertElliottLosesInBursts(t *testing.T) {
	n, a, b, pa := hostPair(3)
	ge := burstyLoss()
	pa.SetFaultInjector(&LinkFaults{Loss: ge})
	const frames = 5000
	sendBurst(t, n, a, b, pa, frames)
	if ge.Drops == 0 {
		t.Fatal("no losses at ~1% average rate over 5000 frames")
	}
	if ge.BadFrames == 0 {
		t.Fatal("chain never entered the bad state")
	}
	if b.Received != frames-ge.Drops {
		t.Fatalf("received %d, sent %d, dropped %d", b.Received, frames, ge.Drops)
	}
	if pa.FaultDrops != ge.Drops {
		t.Fatalf("port counted %d fault drops, model %d", pa.FaultDrops, ge.Drops)
	}
	// Burstiness: mean burst length > 1 means drops < bad-state frames.
	if ge.Drops >= ge.BadFrames+int64(frames)/50 {
		t.Fatalf("loss not concentrated in bursts: %d drops, %d bad-state frames", ge.Drops, ge.BadFrames)
	}
}

func TestLinkFaultsDeterministicReplay(t *testing.T) {
	run := func() (int64, int64, int64, int64) {
		n, a, b, pa := hostPair(11)
		lf := &LinkFaults{
			Loss:    burstyLoss(),
			Corrupt: &Corruptor{Rate: 0.05, MaxBits: 3},
			Jitter:  &Jitter{Max: 200 * sim.Nanosecond, SpikeRate: 0.01, Spike: 50 * sim.Microsecond},
		}
		pa.SetFaultInjector(lf)
		sendBurst(t, n, a, b, pa, 3000)
		return lf.Loss.Drops, lf.Corrupt.Corrupted, lf.Jitter.Spikes, b.Received
	}
	d1, c1, s1, r1 := run()
	d2, c2, s2, r2 := run()
	if d1 != d2 || c1 != c2 || s1 != s2 || r1 != r2 {
		t.Fatalf("same seed diverged: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			d1, c1, s1, r1, d2, c2, s2, r2)
	}
	if d1 == 0 || c1 == 0 || s1 == 0 {
		t.Fatalf("fault models idle: drops=%d corrupted=%d spikes=%d", d1, c1, s1)
	}
}

func TestCorruptionCaughtByICRC(t *testing.T) {
	r := newMemRig(5)
	cor := &Corruptor{Rate: 1}
	r.hp.SetFaultInjector(&LinkFaults{Corrupt: cor})
	const frames = 50
	for i := 0; i < frames; i++ {
		r.hp.Send(r.faaFrame(uint32(i), 1))
	}
	r.net.Engine.Run()
	if cor.Corrupted != frames {
		t.Fatalf("corrupted %d of %d frames at rate 1", cor.Corrupted, frames)
	}
	// Flips landing in ICRC-masked bytes (Ethernet header, IP TTL/TOS/checksum,
	// UDP checksum) leave the operation intact and may legitimately execute;
	// everything else must be rejected. The safety contract is therefore: every
	// executed op applied its correct delta, and at least some flips were caught.
	if r.nic.Stats.BadICRC == 0 {
		t.Fatal("no frame was rejected by the ICRC check")
	}
	if r.nic.Stats.ExecAtomics >= frames {
		t.Fatalf("all %d corrupted atomics executed", r.nic.Stats.ExecAtomics)
	}
	v, _ := r.nic.ReadCounter(r.region.RKey, r.region.Base)
	if v != uint64(r.nic.Stats.ExecAtomics) {
		t.Fatalf("counter = %d but %d atomics executed: a corrupted delta slipped past the ICRC",
			v, r.nic.Stats.ExecAtomics)
	}
}

func TestFlapWindowDropsInWindowOnly(t *testing.T) {
	n, a, b, pa := hostPair(1)
	lf := &LinkFaults{Flaps: []FlapWindow{
		{Start: sim.Time(10 * sim.Microsecond), End: sim.Time(20 * sim.Microsecond)},
	}}
	pa.SetFaultInjector(lf)
	const frames = 30 // one per µs: ~10 land in the flap
	sendBurst(t, n, a, b, pa, frames)
	if lf.FlapDrops == 0 {
		t.Fatal("flap dropped nothing")
	}
	if b.Received != frames-lf.FlapDrops {
		t.Fatalf("received %d, sent %d, flap-dropped %d", b.Received, frames, lf.FlapDrops)
	}
	if lf.FlapDrops > 12 {
		t.Fatalf("flap dropped %d frames, window only covers ~10", lf.FlapDrops)
	}
}

func TestJitterSpikeDelaysDelivery(t *testing.T) {
	n, a, b, pa := hostPair(1)
	pa.SetFaultInjector(&LinkFaults{Jitter: &Jitter{SpikeRate: 1, Spike: 1 * sim.Millisecond}})
	var arrived sim.Time
	b.Handler = func(*netsim.Port, []byte) { arrived = n.Engine.Now() }
	pa.Send(wire.BuildDataFrame(a.MAC, b.MAC, a.IP, b.IP, 1, 2, 128, nil))
	n.Engine.Run()
	if arrived < sim.Time(1*sim.Millisecond) {
		t.Fatalf("spiked frame arrived at %v, want >= 1ms", arrived)
	}
}

func TestServerScheduleCrashRestart(t *testing.T) {
	r := newMemRig(1)
	sched := CrashRestart(r.nic, sim.Time(10*sim.Microsecond), sim.Time(30*sim.Microsecond))
	sched.Loss = CrashPreserve
	sched.Install(r.net.Engine)
	send := func(at sim.Duration, psn uint32) {
		r.net.Engine.Schedule(at, func() { r.hp.Send(r.faaFrame(psn, 1)) })
	}
	send(0, 0)                  // before the crash: executes
	send(15*sim.Microsecond, 1) // during the blackout: dropped
	send(40*sim.Microsecond, 2) // after restart: executes
	r.net.Engine.Run()
	if v, _ := r.nic.ReadCounter(r.region.RKey, r.region.Base); v != 2 {
		t.Fatalf("counter = %d, want 2 (blackout op lost, memory preserved)", v)
	}
	if r.nic.Stats.DroppedWhileFailed != 1 {
		t.Fatalf("dropped-while-failed = %d, want 1", r.nic.Stats.DroppedWhileFailed)
	}
	if sched.Wiped != 0 {
		t.Fatalf("preserve-mode restart wiped %d bytes", sched.Wiped)
	}
}

// The default restart is a power cycle: DRAM contents are gone, and the
// schedule counts the bytes it zeroed.
func TestServerScheduleCrashWipesByDefault(t *testing.T) {
	r := newMemRig(1)
	sched := CrashRestart(r.nic, sim.Time(10*sim.Microsecond), sim.Time(30*sim.Microsecond))
	sched.Install(r.net.Engine)
	send := func(at sim.Duration, psn uint32) {
		r.net.Engine.Schedule(at, func() { r.hp.Send(r.faaFrame(psn, 1)) })
	}
	send(0, 0)                  // before the crash: executes, then wiped
	send(40*sim.Microsecond, 1) // after restart: the only surviving op
	r.net.Engine.Run()
	if v, _ := r.nic.ReadCounter(r.region.RKey, r.region.Base); v != 1 {
		t.Fatalf("counter = %d, want 1 (pre-crash increment wiped)", v)
	}
	if sched.Wiped == 0 {
		t.Fatal("wipe-mode restart reported zero bytes wiped")
	}
	if sched.Loss.String() != "wipe" || CrashPreserve.String() != "preserve" {
		t.Fatalf("CrashLossMode strings wrong: %q / %q", sched.Loss, CrashPreserve)
	}
}

func TestServerScheduleSlowMode(t *testing.T) {
	measure := func(slow bool) sim.Time {
		r := newMemRig(1)
		if slow {
			(&ServerSchedule{Server: r.nic, Events: []ServerEvent{
				{At: 0, Kind: ServerSlow, Factor: 20},
			}}).Install(r.net.Engine)
		}
		var done sim.Time
		r.host.Handler = func(_ *netsim.Port, frame []byte) {
			var pkt wire.Packet
			if pkt.DecodeFromBytes(frame) == nil && pkt.BTH.Opcode == wire.OpAtomicAcknowledge {
				done = r.net.Engine.Now()
			}
		}
		r.net.Engine.Schedule(sim.Microsecond, func() { r.hp.Send(r.faaFrame(0, 1)) })
		r.net.Engine.Run()
		if v, _ := r.nic.ReadCounter(r.region.RKey, r.region.Base); v != 1 {
			t.Fatalf("slow server lost the op: counter = %d", v)
		}
		return done
	}
	fast := measure(false)
	slowed := measure(true)
	if slowed <= fast {
		t.Fatalf("slow mode did not delay the ack: %v vs %v", slowed, fast)
	}
}
