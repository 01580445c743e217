package gem

import (
	"testing"

	"gem/internal/core"
	"gem/internal/switchsim"
	"gem/internal/wire"
)

// TestFramePathZeroAlloc gates the whole per-frame path at zero allocations
// once pools, free lists and queues are warm — every hop a frame takes
// through sim, netsim, switchsim and rnic, not only the wire build and the
// verbs post that the layer gates cover:
//
//   - one 64 B frame host → switch (L2 pipeline) → host;
//   - one Fetch-and-Add a host puts on the wire → switch → memory NIC
//     (executes it) → atomic ACK back to the switch;
//   - one recirculate-mode remote lookup: host → switch, which READs the
//     action and recirculates the packet until it lands → host;
//   - one deposit-mode remote lookup at the testbed's default 1024 B MTU:
//     host → switch, which WRITEs the packet into its entry and READs back
//     {action, packet} in one response → host, for a 64 B and a 1014 B
//     frame (the largest slot that MTU allows).
func TestFramePathZeroAlloc(t *testing.T) {
	tb, err := New(Options{Seed: 1, Hosts: 2, MemoryServers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := tb.Establish(0, ChannelSpec{RegionSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := switchsim.NewL2Pipeline(tb.Switch, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range tb.Hosts {
		if err := l2.Learn(h.MAC, tb.SwitchPortOfHost(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l2.Learn(ch.PeerMAC, ch.Port); err != nil {
		t.Fatal(err)
	}
	lcfg := LookupConfig{Entries: 16, MaxPktBytes: 128, Mode: LookupRecirculate}
	lch, err := tb.Establish(0, ChannelSpec{RegionSize: lcfg.Entries * lcfg.EntrySize()})
	if err != nil {
		t.Fatal(err)
	}
	lt, err := NewLookupTable(lch, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	lt.DefaultOutPort = tb.SwitchPortOfHost(1)
	for i := 0; i < lcfg.Entries; i++ {
		if err := PopulateLookupEntry(tb.Region(lch), lcfg, i, SetDSCPAction(46)); err != nil {
			t.Fatal(err)
		}
	}
	tb.Dispatcher.Register(lch, lt)
	dcfg := LookupConfig{Entries: 16, MaxPktBytes: 1014}
	dch, err := tb.Establish(0, ChannelSpec{RegionSize: dcfg.Entries * dcfg.EntrySize()})
	if err != nil {
		t.Fatal(err)
	}
	dt, err := NewLookupTable(dch, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	dt.DefaultOutPort = tb.SwitchPortOfHost(1)
	for i := 0; i < dcfg.Entries; i++ {
		if err := PopulateLookupEntry(tb.Region(dch), dcfg, i, SetDSCPAction(46)); err != nil {
			t.Fatal(err)
		}
	}
	tb.Dispatcher.Register(dch, dt)
	const lookupPort, depositPort = 3000, 3001
	acks := 0
	tb.Switch.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if ctx.Pkt != nil && ctx.Pkt.IsRoCE && ctx.Pkt.BTH.Opcode == wire.OpAtomicAcknowledge {
			acks++
			ctx.Drop() // the response ends at the switch, as with a primitive
			return
		}
		if tb.Dispatcher.Dispatch(ctx) { // the lookup's READ responses and recirculations
			return
		}
		if ctx.Pkt != nil && ctx.Pkt.HasUDP && ctx.Pkt.UDP.DstPort == lookupPort {
			lt.Lookup(ctx, ctx.Frame, ctx.Pkt)
			return
		}
		if ctx.Pkt != nil && ctx.Pkt.HasUDP && ctx.Pkt.UDP.DstPort == depositPort {
			dt.Lookup(ctx, ctx.Frame, ctx.Pkt)
			return
		}
		l2.Ingress(ctx)
	})

	src, dst := tb.Hosts[0], tb.Hosts[1]
	forward := func() {
		tb.SendFrame(0, wire.BuildDataFrameInto(wire.DefaultPool, src.MAC, dst.MAC, src.IP, dst.IP, 1000, 2000, 64, nil))
		tb.Run()
	}
	fetchAdd := func() {
		p := wire.RoCEParams{
			SrcMAC: core.SwitchMAC, DstMAC: ch.PeerMAC,
			SrcIP: core.SwitchIP, DstIP: ch.PeerIP,
			UDPSrcPort: 0xC000, DestQP: ch.PeerQPN, PSN: ch.NextPSN(1),
		}
		tb.SendFrame(0, wire.BuildFetchAddInto(wire.DefaultPool, &p, ch.Base+64, ch.RKey, 3))
		tb.Run()
	}
	lookup := func() {
		tb.SendFrame(0, wire.BuildDataFrameInto(wire.DefaultPool, src.MAC, dst.MAC, src.IP, dst.IP, 1000, lookupPort, 64, nil))
		tb.Run()
	}
	deposit := func(size int) func() {
		return func() {
			tb.SendFrame(0, wire.BuildDataFrameInto(wire.DefaultPool, src.MAC, dst.MAC, src.IP, dst.IP, 1000, depositPort, size, nil))
			tb.Run()
		}
	}
	depositSizes := []int{64, 1014}
	for i := 0; i < 64; i++ { // warm the pools, free lists and queues
		forward()
		fetchAdd()
		lookup()
		for _, size := range depositSizes {
			deposit(size)()
		}
	}

	const runs = 200
	received, executed := dst.Received, tb.MemNICs[0].Stats.ExecAtomics
	if allocs := testing.AllocsPerRun(runs, forward); allocs != 0 {
		t.Errorf("a 64 B frame host → switch → host allocates %.2f times, want 0", allocs)
	}
	if got := dst.Received - received; got != runs+1 { // AllocsPerRun adds one warm-up call
		t.Fatalf("%d frames delivered in %d runs", got, runs+1)
	}
	acked := acks
	if allocs := testing.AllocsPerRun(runs, fetchAdd); allocs != 0 {
		t.Errorf("a Fetch-and-Add host → switch → NIC → switch allocates %.2f times, want 0", allocs)
	}
	if exec := tb.MemNICs[0].Stats.ExecAtomics - executed; exec != runs+1 || acks-acked != runs+1 {
		t.Fatalf("%d atomics executed and %d ACKs reached the switch in %d runs", exec, acks-acked, runs+1)
	}
	if v, err := tb.ReadRemoteCounter(ch, 64); err != nil || v != 3*(64+runs+1) {
		t.Fatalf("remote counter = %d (%v), want %d", v, err, 3*(64+runs+1))
	}
	received, passes := dst.Received, lt.Stats.RecircPasses
	if allocs := testing.AllocsPerRun(runs, lookup); allocs != 0 {
		t.Errorf("a recirculate-mode lookup host → switch ⟲ → host allocates %.2f times, want 0", allocs)
	}
	if got := dst.Received - received; got != runs+1 {
		t.Fatalf("%d looked-up frames delivered in %d runs", got, runs+1)
	}
	if p := lt.Stats.RecircPasses - passes; p <= 2*(runs+1) {
		t.Fatalf("%d recirculation passes in %d lookups, want more than two each", p, runs+1)
	}
	for _, size := range depositSizes {
		received := dst.Received
		if allocs := testing.AllocsPerRun(runs, deposit(size)); allocs != 0 {
			t.Errorf("a deposit-mode %d B lookup host → switch → NIC → switch → host allocates %.2f times, want 0", size, allocs)
		}
		if got := dst.Received - received; got != runs+1 {
			t.Fatalf("%d deposited %d B frames delivered in %d runs", got, size, runs+1)
		}
	}
	if dt.Stats.BadEntries != 0 {
		t.Fatalf("deposit lookups parsed %d bad entries", dt.Stats.BadEntries)
	}
	if tb.ServerCPUOps() != 0 {
		t.Fatalf("memory server CPU handled %d packets", tb.ServerCPUOps())
	}
}
