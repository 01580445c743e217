package gem

import (
	"testing"

	"gem/internal/rnic"
)

func TestNewTestbedWiring(t *testing.T) {
	tb, err := New(Options{Hosts: 3, MemoryServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Hosts) != 3 || len(tb.MemNICs) != 2 {
		t.Fatalf("hosts=%d mem=%d", len(tb.Hosts), len(tb.MemNICs))
	}
	if tb.Switch.NumPorts() != 5 {
		t.Fatalf("switch ports = %d, want 5", tb.Switch.NumPorts())
	}
	if tb.SwitchPortOfMem(1) != 4 || tb.SwitchPortOfHost(2) != 2 {
		t.Fatal("port index mapping wrong")
	}
}

func TestNewRejectsEmptyTopology(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("empty topology accepted")
	}
}

func TestEstablishRejectsBadServer(t *testing.T) {
	tb, _ := New(Options{Hosts: 1, MemoryServers: 1})
	if _, err := tb.Establish(5, ChannelSpec{RegionSize: 1024}); err == nil {
		t.Fatal("bad memory server index accepted")
	}
}

func TestEndToEndQuickstart(t *testing.T) {
	// The quickstart flow from the package docs: count packets of a flow
	// in remote memory while forwarding between two hosts.
	tb, err := New(Options{Seed: 1, Hosts: 2, MemoryServers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := tb.Establish(0, ChannelSpec{RegionSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewStateStore(ch, StateStoreConfig{Counters: 1024})
	if err != nil {
		t.Fatal(err)
	}
	tb.Dispatcher.Register(ch, ss)
	tb.SetPipeline(func(ctx *Context) {
		if ctx.Pkt == nil || !ctx.Pkt.HasIPv4 {
			ctx.Drop()
			return
		}
		ss.UpdateFlow(FlowOf(ctx.Pkt))
		ctx.Emit(1-ctx.InPort, ctx.Frame)
	})
	const n = 100
	for i := 0; i < n; i++ {
		tb.SendFrame(0, tb.DataFrame(0, 1, 512, 1234, 80))
	}
	tb.Run()
	if tb.Hosts[1].Received != n {
		t.Fatalf("delivered %d/%d", tb.Hosts[1].Received, n)
	}
	key := FlowKey{SrcIP: tb.Hosts[0].IP, DstIP: tb.Hosts[1].IP, Protocol: 17, SrcPort: 1234, DstPort: 80}
	v, err := tb.ReadRemoteCounter(ch, ss.CounterOffset(key.Index(1024)))
	if err != nil {
		t.Fatal(err)
	}
	if v != n {
		t.Fatalf("remote counter = %d, want %d", v, n)
	}
	if tb.ServerCPUOps() != 0 {
		t.Fatalf("server CPU ops = %d", tb.ServerCPUOps())
	}
}

func TestRegionAccessor(t *testing.T) {
	tb, _ := New(Options{Hosts: 1, MemoryServers: 1})
	ch, err := tb.Establish(0, ChannelSpec{RegionSize: 4096, Mode: rnic.PSNStrict})
	if err != nil {
		t.Fatal(err)
	}
	r := tb.Region(ch)
	if r == nil || r.Size != 4096 {
		t.Fatal("region accessor broken")
	}
	bogus := *ch
	bogus.RKey = 0xDEAD
	if tb.Region(&bogus) != nil {
		t.Fatal("phantom region")
	}
	if _, err := tb.ReadRemoteCounter(&bogus, 0); err == nil {
		t.Fatal("phantom counter read")
	}
}

func TestCustomLinkRate(t *testing.T) {
	tb, _ := New(Options{Hosts: 2, MemoryServers: 0, LinkRateBps: 10e9})
	tb.SetPipeline(func(ctx *Context) {
		ctx.Emit(1-ctx.InPort, ctx.Frame)
	})
	tb.SendFrame(0, tb.DataFrame(0, 1, 1226, 1, 2))
	tb.Run()
	// 1250 wire bytes at 10G = 1µs per hop serialization; total latency
	// must reflect the slower links (2 hops + pipeline + 2 props).
	if got := tb.Now(); got < Time(2000) {
		t.Fatalf("latency %v too small for 10G links", got)
	}
}

func TestRoCEv1ChannelViaFacade(t *testing.T) {
	tb, err := New(Options{Seed: 9, Hosts: 1, MemoryServers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := tb.Establish(0, ChannelSpec{RegionSize: 4096, Version: RoCEv1})
	if err != nil {
		t.Fatal(err)
	}
	tb.SetPipeline(func(ctx *Context) {
		if !tb.Dispatcher.Dispatch(ctx) {
			ctx.Drop()
		}
	})
	ch.FetchAdd(0, 21)
	ch.FetchAdd(0, 21)
	tb.Run()
	if v, _ := tb.ReadRemoteCounter(ch, 0); v != 42 {
		t.Fatalf("v1 counter = %d, want 42", v)
	}
}

func TestMemLinkLossOption(t *testing.T) {
	tb, err := New(Options{Seed: 9, Hosts: 1, MemoryServers: 1, MemLinkLossRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := tb.Establish(0, ChannelSpec{RegionSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	tb.SetPipeline(func(ctx *Context) { ctx.Drop() })
	for i := 0; i < 200; i++ {
		ch.FetchAdd(0, 1)
	}
	tb.Run()
	v, _ := tb.ReadRemoteCounter(ch, 0)
	if v == 200 || v == 0 {
		t.Fatalf("counter = %d with 50%% loss; option not applied", v)
	}
}

func TestBandwidthCapViaFacade(t *testing.T) {
	tb, _ := New(Options{Seed: 9, Hosts: 1, MemoryServers: 1})
	ch, err := tb.Establish(0, ChannelSpec{RegionSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ch.SetBandwidthCap(1e9, 1024)
	tb.SetPipeline(func(ctx *Context) { ctx.Drop() })
	// Burst beyond the bucket: some must be refused.
	for i := 0; i < 100; i++ {
		ch.FetchAdd(0, 1)
	}
	tb.Run()
	if ch.CapDrops == 0 {
		t.Fatal("cap never engaged through the facade")
	}
}
