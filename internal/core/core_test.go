package core

import (
	"testing"

	"gem/internal/netsim"
	"gem/internal/rnic"
	"gem/internal/sim"
	"gem/internal/switchsim"
	"gem/internal/wire"
)

// bed is the standard core test fixture: a ToR switch with nHosts host
// ports (0..nHosts-1) and nMem memory servers on the following ports.
// memNIC/memHost/memPort refer to the first memory server.
type bed struct {
	net      *netsim.Net
	sw       *switchsim.Switch
	hosts    []*netsim.Host
	memNIC   *rnic.NIC
	memHost  *netsim.Host
	memPort  int
	memNICs  []*rnic.NIC
	memHosts []*netsim.Host
	ctrl     *Controller
	disp     *Dispatcher
}

func newBedN(t *testing.T, nHosts, nMem int, swCfg switchsim.Config, nicCfg rnic.Config) *bed {
	t.Helper()
	n := netsim.New(1)
	sw := switchsim.New("tor", n.Engine, swCfg)
	var ports []*netsim.Port
	hosts := make([]*netsim.Host, nHosts)
	for i := range hosts {
		hosts[i] = netsim.NewHost("h", uint32(i+1))
		sp, _ := n.Connect(sw, hosts[i], netsim.Link40G())
		ports = append(ports, sp)
	}
	b := &bed{net: n, sw: sw, hosts: hosts}
	for i := 0; i < nMem; i++ {
		memHost := netsim.NewHost("memsrv", uint32(200+i))
		memNIC := rnic.New("memsrv-nic", memHost, nicCfg)
		sp, np := n.Connect(sw, memNIC, netsim.Link40G())
		memNIC.Bind(n.Engine, np)
		ports = append(ports, sp)
		b.memNICs = append(b.memNICs, memNIC)
		b.memHosts = append(b.memHosts, memHost)
	}
	sw.Bind(ports...)
	b.memNIC, b.memHost, b.memPort = b.memNICs[0], b.memHosts[0], nHosts
	b.ctrl = NewController(sw)
	b.disp = NewDispatcher()
	// Drain in-flight frames after the test: the package TestMain audits
	// wire.DefaultPool for leaks, and a test that stops the clock with
	// requests still on the wire would otherwise trip it. Tests that start
	// tickers must stop them (e.g. Failover.Stop) or this never quiesces.
	t.Cleanup(func() { drainUnlessFailed(t, n.Engine) })
	return b
}

// drainUnlessFailed runs e to quiescence after a passing test. A failed
// test may have wedged a stream that retries forever, so draining it would
// spin until go test's timeout; TestMain audits the pool only when every
// test passed, so nothing is lost by skipping it.
func drainUnlessFailed(t *testing.T, e *sim.Engine) {
	if !t.Failed() {
		e.Run()
	}
}

func newBed(t *testing.T, nHosts int, swCfg switchsim.Config, nicCfg rnic.Config) *bed {
	return newBedN(t, nHosts, 1, swCfg, nicCfg)
}

func (b *bed) establishOn(t *testing.T, mem int, size int, mode rnic.PSNMode, ackReq bool) *Channel {
	t.Helper()
	ch, err := b.ctrl.Establish(ChannelSpec{
		SwitchPort: len(b.hosts) + mem, NIC: b.memNICs[mem],
		RegionBase: 0x100000, RegionSize: size,
		Mode: mode, AckReq: ackReq,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func (b *bed) establish(t *testing.T, size int, mode rnic.PSNMode, ackReq bool) *Channel {
	return b.establishOn(t, 0, size, mode, ackReq)
}

func dataFrame(src, dst *netsim.Host, size int, srcPort uint16) []byte {
	return wire.BuildDataFrame(src.MAC, dst.MAC, src.IP, dst.IP, srcPort, 9999, size, nil)
}

func TestControllerEstablish(t *testing.T) {
	b := newBed(t, 2, switchsim.Config{}, rnic.Config{})
	ch := b.establish(t, 1<<20, rnic.PSNTolerant, false)
	if ch.PeerMAC != b.memNIC.MAC || ch.PeerIP != b.memNIC.IP {
		t.Fatal("peer addressing not installed")
	}
	if ch.RKey == 0 || ch.Size != 1<<20 || ch.Base != 0x100000 {
		t.Fatalf("region info = rkey=%#x base=%#x size=%d", ch.RKey, ch.Base, ch.Size)
	}
	if ch.MTU != rnic.DefaultConfig().MTU {
		t.Fatalf("channel MTU = %d", ch.MTU)
	}
	if b.ctrl.SetupOps == 0 {
		t.Fatal("setup ops not counted")
	}
	if b.memNIC.LookupRegion(ch.RKey) == nil {
		t.Fatal("region not registered on NIC")
	}
	// A second channel gets a distinct ID.
	ch2 := b.establish(t, 1<<10, rnic.PSNTolerant, false)
	if ch2.ID == ch.ID {
		t.Fatal("channel IDs collide")
	}
}

func TestChannelWriteReachesRemoteMemory(t *testing.T) {
	b := newBed(t, 1, switchsim.Config{}, rnic.Config{})
	ch := b.establish(t, 4096, rnic.PSNTolerant, false)
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) { ctx.Drop() })
	ch.Write(128, []byte("written-from-data-plane"))
	b.net.Engine.Run()
	region := b.memNIC.LookupRegion(ch.RKey)
	if string(region.Bytes()[128:128+23]) != "written-from-data-plane" {
		t.Fatal("switch-crafted WRITE did not land in server DRAM")
	}
	if b.memHost.CPUOps != 0 {
		t.Fatalf("server CPU ops = %d, want 0", b.memHost.CPUOps)
	}
}

func TestChannelFetchAddAndDispatcher(t *testing.T) {
	b := newBed(t, 1, switchsim.Config{}, rnic.Config{})
	ch := b.establish(t, 4096, rnic.PSNTolerant, false)
	acks := 0
	b.disp.Register(ch, handlerFunc(func(ctx *switchsim.Context, pkt *wire.Packet) {
		if pkt.BTH.Opcode == wire.OpAtomicAcknowledge {
			acks++
		}
		ctx.Drop()
	}))
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if !b.disp.Dispatch(ctx) {
			ctx.Drop()
		}
	})
	for i := 0; i < 3; i++ {
		ch.FetchAdd(0, 5)
	}
	b.net.Engine.Run()
	if v, _ := b.memNIC.ReadCounter(ch.RKey, ch.Base); v != 15 {
		t.Fatalf("remote counter = %d, want 15", v)
	}
	if acks != 3 {
		t.Fatalf("atomic acks dispatched = %d, want 3", acks)
	}
}

type handlerFunc func(*switchsim.Context, *wire.Packet)

func (f handlerFunc) HandleResponse(ctx *switchsim.Context, pkt *wire.Packet) { f(ctx, pkt) }

// TestDispatcherUnclaimed: a response and a recirculated frame that no
// handler owns are each counted Unclaimed and dropped, the recirculated
// frame's buffer recycled exactly once.
func TestDispatcherUnclaimed(t *testing.T) {
	b := newBed(t, 1, switchsim.Config{}, rnic.Config{})
	ch := b.establish(t, 4096, rnic.PSNTolerant, false)
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if !b.disp.Dispatch(ctx) {
			// A data frame recirculates under an owner QPN no channel has.
			ctx.Recirculate(ctx.Frame, 0xABCDE<<recircOwnerShift|7)
		}
	})
	before := wire.DefaultPool.Stats().Balance()
	ch.FetchAdd(0, 1) // no handler registered for ch
	b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[0], 128, 1))
	b.net.Engine.Run()
	if b.disp.Unclaimed != 2 || b.sw.Stats.Recirculated != 1 {
		t.Fatalf("unclaimed = %d after %d recirculations, want 2 and 1", b.disp.Unclaimed, b.sw.Stats.Recirculated)
	}
	if b.hosts[0].Received != 0 {
		t.Fatal("unclaimed recirculated frame was delivered")
	}
	if bal := wire.DefaultPool.Stats().Balance(); bal != before {
		t.Fatalf("unclaimed frames not recycled exactly once: balance drifted %+d", bal-before)
	}
}

func TestDispatcherIgnoresNonResponses(t *testing.T) {
	d := NewDispatcher()
	var pkt wire.Packet
	frame := wire.BuildDataFrame(wire.MACFromUint64(1), wire.MACFromUint64(2),
		wire.IP4{1, 1, 1, 1}, wire.IP4{2, 2, 2, 2}, 1, 2, 100, nil)
	defer wire.DefaultPool.Put(frame)
	if err := pkt.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	ctx := switchsim.Context{Pkt: &pkt, Frame: frame}
	if d.Dispatch(&ctx) {
		t.Fatal("dispatcher consumed a plain data frame")
	}
}

func TestChannelVAOutOfBoundsPanics(t *testing.T) {
	b := newBed(t, 1, switchsim.Config{}, rnic.Config{})
	ch := b.establish(t, 1024, rnic.PSNTolerant, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-region access")
		}
	}()
	ch.VA(1020, 8)
}

func TestChannelPSNAdvances(t *testing.T) {
	b := newBed(t, 1, switchsim.Config{}, rnic.Config{})
	ch := b.establish(t, 1<<16, rnic.PSNTolerant, false)
	if ch.NextPSN(1) != 0 || ch.NextPSN(4) != 1 || ch.PSN() != 5 {
		t.Fatal("PSN accounting wrong")
	}
	ch.psn.Set(0, 0xFFFFFE)
	ch.NextPSN(3)
	if ch.PSN() != 1 {
		t.Fatalf("PSN wrap = %d, want 1", ch.PSN())
	}
}

// ---- packet buffer primitive ----

// pktbufBed builds: 2 senders, 1 receiver, two memory servers (a 2:1 incast
// at line rate needs two 40G memory links once the ordering rule routes the
// full arrival rate through the ring); the pipeline forwards everything for
// the receiver through the packet buffer primitive.
func pktbufBed(t *testing.T, swCfg switchsim.Config, pbCfg PacketBufferConfig) (*bed, *PacketBuffer) {
	b := newBedN(t, 3, 2, swCfg, rnic.Config{MTU: 4096})
	chans := []*Channel{
		b.establishOn(t, 0, 1<<22, rnic.PSNTolerant, false), // 4 MB ring each
		b.establishOn(t, 1, 1<<22, rnic.PSNTolerant, false),
	}
	pb, err := NewPacketBuffer(chans, 2, pbCfg) // protect port 2 (receiver)
	if err != nil {
		t.Fatal(err)
	}
	pb.RegisterWith(b.disp)
	b.sw.Hooks = pb
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if b.disp.Dispatch(ctx) {
			return
		}
		if ctx.Pkt == nil {
			ctx.Drop()
			return
		}
		if ctx.Pkt.Eth.Dst == b.hosts[2].MAC {
			pb.Admit(ctx, ctx.Frame)
			return
		}
		ctx.Drop()
	})
	return b, pb
}

func TestPacketBufferBypassWhenHealthy(t *testing.T) {
	b, pb := pktbufBed(t, switchsim.Config{}, PacketBufferConfig{})
	b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[2], 1500, 1))
	b.net.Engine.Run()
	if pb.Stats.Bypassed != 1 || pb.Stats.Stored != 0 {
		t.Fatalf("stats = %+v", pb.Stats)
	}
	if b.hosts[2].Received != 1 {
		t.Fatal("frame lost")
	}
}

func TestPacketBufferSpillsAndRecoversLossless(t *testing.T) {
	// Incast: 2 senders × 300 × 1500B = 900 KB toward one 40G port with a
	// 64 KB high watermark. Without the primitive the 128 KB switch
	// buffer would drop most of it; with it, everything arrives.
	swCfg := switchsim.Config{BufferBytes: 128 << 10}
	pbCfg := PacketBufferConfig{HighWaterBytes: 64 << 10, LowWaterBytes: 32 << 10}
	b, pb := pktbufBed(t, swCfg, pbCfg)
	const perSender = 300
	for i := 0; i < perSender; i++ {
		b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[2], 1500, 1))
		b.net.Ports(b.hosts[1])[0].Send(dataFrame(b.hosts[1], b.hosts[2], 1500, 2))
	}
	b.net.Engine.Run()
	if got := b.hosts[2].Received; got != 2*perSender {
		t.Fatalf("received %d/%d — primitive lost packets (stats %+v, drops %d)",
			got, 2*perSender, pb.Stats, b.sw.Stats.BufferDrops)
	}
	if pb.Stats.Stored == 0 {
		t.Fatal("nothing was spilled: watermark never hit?")
	}
	if pb.Stats.Loaded != pb.Stats.Stored {
		t.Fatalf("loaded %d != stored %d", pb.Stats.Loaded, pb.Stats.Stored)
	}
	if pb.detour {
		t.Fatal("primitive stuck in detour mode after drain")
	}
	if b.memHost.CPUOps != 0 {
		t.Fatalf("memory server CPU = %d", b.memHost.CPUOps)
	}
}

func TestPacketBufferPreservesOrder(t *testing.T) {
	swCfg := switchsim.Config{BufferBytes: 256 << 10}
	pbCfg := PacketBufferConfig{HighWaterBytes: 16 << 10, LowWaterBytes: 8 << 10}
	b, _ := pktbufBed(t, swCfg, pbCfg)
	// Sequence numbers ride in the UDP source port.
	var got []uint16
	b.hosts[2].Handler = func(_ *netsim.Port, frame []byte) {
		var p wire.Packet
		if err := p.DecodeFromBytes(frame); err == nil && p.HasUDP {
			got = append(got, p.UDP.SrcPort)
		}
	}
	const n = 200
	for i := 0; i < n; i++ {
		f := wire.BuildDataFrame(b.hosts[0].MAC, b.hosts[2].MAC, b.hosts[0].IP, b.hosts[2].IP,
			uint16(i+1), 9999, 1500, nil)
		b.net.Ports(b.hosts[0])[0].Send(f)
		b.net.Ports(b.hosts[1])[0].Send(dataFrame(b.hosts[1], b.hosts[2], 1500, 60000))
	}
	b.net.Engine.Run()
	var seq []uint16
	for _, p := range got {
		if p != 60000 {
			seq = append(seq, p)
		}
	}
	if len(seq) != n {
		t.Fatalf("h0 frames delivered = %d/%d", len(seq), n)
	}
	for i := 1; i < len(seq); i++ {
		if seq[i] != seq[i-1]+1 {
			t.Fatalf("reordering at %d: %d then %d", i, seq[i-1], seq[i])
		}
	}
}

func TestPacketBufferRingFullDrops(t *testing.T) {
	// Tiny ring (4 entries) and an unservable flood: ring drops counted.
	b := newBed(t, 3, switchsim.Config{}, rnic.Config{MTU: 4096})
	ch := b.establish(t, 4*2048, rnic.PSNTolerant, false)
	pb, err := NewPacketBuffer([]*Channel{ch}, 2, PacketBufferConfig{
		HighWaterBytes: 1500, LowWaterBytes: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Force detour and stuff the ring without letting loads drain (no
	// dispatcher wired, so responses vanish).
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) { ctx.Drop() })
	b.sw.Hooks = pb
	for i := 0; i < 10; i++ {
		// store copies the frame into the ring entry; the caller (the
		// pipeline pass in production, this loop here) still owns it.
		frame := dataFrame(b.hosts[0], b.hosts[2], 1500, 1)
		pb.store(frame)
		wire.DefaultPool.Put(frame)
	}
	if pb.Stats.Stored != 4 {
		t.Fatalf("stored = %d, want 4 (ring size)", pb.Stats.Stored)
	}
	if pb.Stats.RingDrops != 6 {
		t.Fatalf("ring drops = %d, want 6", pb.Stats.RingDrops)
	}
}

// TestPacketBufferRegionGate floods a two-channel ring of 40 entries per
// channel while loading is paused. The region gate closes when the channel
// the next entry lands on holds 36 entries (90 %): from then on high
// priority bypasses and low priority is shed, and the ring never fills, so
// nothing is lost to RingDrops. Once loading drains the ring below 85 %,
// the next spill reopens the gate.
func TestPacketBufferRegionGate(t *testing.T) {
	const perChan = 40
	b := newBedN(t, 3, 2, switchsim.Config{}, rnic.Config{MTU: 4096})
	chans := []*Channel{
		b.establishOn(t, 0, perChan*2048, rnic.PSNTolerant, false),
		b.establishOn(t, 1, perChan*2048, rnic.PSNTolerant, false),
	}
	pb, err := NewPacketBuffer(chans, 2, PacketBufferConfig{HighWaterBytes: 1}) // spill everything
	if err != nil {
		t.Fatal(err)
	}
	pb.RegisterWith(b.disp)
	b.sw.Hooks = pb
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if b.disp.Dispatch(ctx) {
			return
		}
		if ctx.Pkt == nil {
			ctx.Drop()
			return
		}
		prio := switchsim.PriorityHigh
		if ctx.Pkt.Eth.Src == b.hosts[1].MAC {
			prio = switchsim.PriorityLow
		}
		pb.AdmitPrio(ctx, ctx.Frame, prio)
	})
	send := func(host, n int) {
		for i := 0; i < n; i++ {
			b.net.Ports(b.hosts[host])[0].Send(dataFrame(b.hosts[host], b.hosts[2], 1500, 1))
		}
		b.net.Engine.Run()
	}
	pb.PauseLoading()
	send(0, 200) // high priority
	send(1, 10)  // low priority
	// The gate last looked at channel 1 before its 36th entry went in.
	st := pb.Stats
	if st.Stored != 2*36 || pb.Depth() != 72 || pb.PeakOccupancy(0) != 36 || pb.PeakOccupancy(1) != 35 {
		t.Fatalf("stored %d, depth %d, peak occupancy %d/%d; want 72, 72, 36/35",
			st.Stored, pb.Depth(), pb.PeakOccupancy(0), pb.PeakOccupancy(1))
	}
	if st.RingDrops != 0 || st.PressureBypassed != 200-72 || st.ShedLowPrio != 10 {
		t.Fatalf("ring drops %d, bypassed %d, shed %d; want 0/128/10",
			st.RingDrops, st.PressureBypassed, st.ShedLowPrio)
	}
	if st.SpillGateEntries != 1 || st.SpillGateExits != 0 {
		t.Fatalf("gate closed %d, reopened %d; want 1/0", st.SpillGateEntries, st.SpillGateExits)
	}
	pb.ResumeLoading()
	b.net.Engine.Run()
	send(0, 1)
	st = pb.Stats
	if st.SpillGateExits != 1 || st.Stored != 73 || st.Loaded != 73 || st.RingDrops != 0 {
		t.Fatalf("after drain: gate reopened %d, stored %d, loaded %d, ring drops %d; want 1/73/73/0",
			st.SpillGateExits, st.Stored, st.Loaded, st.RingDrops)
	}
}

func TestPacketBufferOversizeFrameDropped(t *testing.T) {
	b := newBed(t, 3, switchsim.Config{}, rnic.Config{MTU: 4096})
	ch := b.establish(t, 1<<20, rnic.PSNTolerant, false)
	pb, err := NewPacketBuffer([]*Channel{ch}, 2, PacketBufferConfig{EntrySize: 256})
	if err != nil {
		t.Fatal(err)
	}
	pb.store(make([]byte, 255)) // 255+2 > 256
	if pb.Stats.RingDrops != 1 {
		t.Fatal("oversize frame accepted")
	}
}

func TestPacketBufferConfigValidation(t *testing.T) {
	b := newBed(t, 2, switchsim.Config{}, rnic.Config{})
	ch := b.establish(t, 1024, rnic.PSNTolerant, false)
	if _, err := NewPacketBuffer([]*Channel{ch}, 0, PacketBufferConfig{EntrySize: 1024}); err == nil {
		t.Fatal("1-entry ring accepted")
	}
	// Inverted watermarks are legal: independent store/load triggers.
	ch2 := b.establish(t, 1<<20, rnic.PSNTolerant, false)
	if _, err := NewPacketBuffer([]*Channel{ch2}, 0, PacketBufferConfig{
		HighWaterBytes: 10, LowWaterBytes: 20,
	}); err != nil {
		t.Fatalf("inverted watermarks rejected: %v", err)
	}
}

func TestPacketBufferMultiPacketEntries(t *testing.T) {
	// MTU 1024 < EntrySize 2048: READ responses arrive First+Last and
	// must reassemble.
	swCfg := switchsim.Config{BufferBytes: 128 << 10}
	pbCfg := PacketBufferConfig{HighWaterBytes: 32 << 10, LowWaterBytes: 16 << 10}
	b := newBedN(t, 3, 2, swCfg, rnic.Config{MTU: 1024})
	chans := []*Channel{
		b.establishOn(t, 0, 1<<22, rnic.PSNTolerant, false),
		b.establishOn(t, 1, 1<<22, rnic.PSNTolerant, false),
	}
	pb, err := NewPacketBuffer(chans, 2, pbCfg)
	if err != nil {
		t.Fatal(err)
	}
	pb.RegisterWith(b.disp)
	b.sw.Hooks = pb
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if b.disp.Dispatch(ctx) {
			return
		}
		if ctx.Pkt != nil && ctx.Pkt.Eth.Dst == b.hosts[2].MAC {
			pb.Admit(ctx, ctx.Frame)
			return
		}
		ctx.Drop()
	})
	const n = 100
	for i := 0; i < n; i++ {
		b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[2], 1500, 1))
		b.net.Ports(b.hosts[1])[0].Send(dataFrame(b.hosts[1], b.hosts[2], 1500, 2))
	}
	b.net.Engine.Run()
	if b.hosts[2].Received != 2*n {
		t.Fatalf("received %d/%d with segmented entries", b.hosts[2].Received, 2*n)
	}
	if pb.Stats.Stored == 0 || pb.Stats.Loaded != pb.Stats.Stored {
		t.Fatalf("stats = %+v", pb.Stats)
	}
}

func TestRoCEv1ChannelEndToEnd(t *testing.T) {
	// A full FAA round trip over the v1 (GRH) encapsulation: request
	// crafted by the switch, executed by the NIC, atomic ACK dispatched
	// back — byte-for-byte over ethertype 0x8915.
	b := newBed(t, 1, switchsim.Config{}, rnic.Config{})
	ch, err := b.ctrl.Establish(ChannelSpec{
		SwitchPort: b.memPort, NIC: b.memNIC,
		RegionBase: 0x1000, RegionSize: 4096,
		Version: wire.RoCEv1,
	})
	if err != nil {
		t.Fatal(err)
	}
	acks := 0
	b.disp.Register(ch, handlerFunc(func(ctx *switchsim.Context, pkt *wire.Packet) {
		if pkt.BTH.Opcode == wire.OpAtomicAcknowledge && pkt.HasGRH {
			acks++
		}
		ctx.Drop()
	}))
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if !b.disp.Dispatch(ctx) {
			ctx.Drop()
		}
	})
	for i := 0; i < 4; i++ {
		ch.FetchAdd(0, 3)
	}
	b.net.Engine.Run()
	if v, _ := b.memNIC.ReadCounter(ch.RKey, ch.Base); v != 12 {
		t.Fatalf("remote counter = %d, want 12", v)
	}
	if acks != 4 {
		t.Fatalf("v1 atomic acks = %d, want 4", acks)
	}
}

func TestRoCEv1ChannelWriteRead(t *testing.T) {
	b := newBed(t, 1, switchsim.Config{}, rnic.Config{MTU: 4096})
	ch, err := b.ctrl.Establish(ChannelSpec{
		SwitchPort: b.memPort, NIC: b.memNIC,
		RegionBase: 0x1000, RegionSize: 65536,
		Version: wire.RoCEv1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	b.disp.Register(ch, handlerFunc(func(ctx *switchsim.Context, pkt *wire.Packet) {
		if pkt.BTH.Opcode.IsReadResponse() {
			got = append([]byte(nil), pkt.Payload...)
		}
		ctx.Drop()
	}))
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if !b.disp.Dispatch(ctx) {
			ctx.Drop()
		}
	})
	ch.Write(64, []byte("over-grh"))
	ch.Read(64, 8, 1)
	b.net.Engine.Run()
	if string(got) != "over-grh" {
		t.Fatalf("v1 read returned %q", got)
	}
}
