package harness

import (
	"fmt"

	"gem"
	"gem/internal/flowgen"
	"gem/internal/sim"
)

// E3Config parameterizes the Figure 3b reproduction: link bandwidth
// consumed by the state-store primitive's Fetch-and-Add traffic while
// counting packets of a line-rate flow, across packet sizes. The paper
// measures ≈2.1 Gbps on the switch↔RNIC link, a 100% accurate counter, and
// no end-to-end throughput degradation.
type E3Config struct {
	// Sizes are the traffic frame sizes (paper: 64–1024 B).
	Sizes []int
	// OfferedGbps is the generator rate (paper: line rate).
	OfferedGbps float64
	// Window is the measurement window per size.
	Window sim.Duration
	// Flows spreads the traffic over a few flows (raw_ethernet_bw uses
	// one; a handful exercises the accumulator paths).
	Flows int
}

// DefaultE3Config returns the full-experiment settings.
func DefaultE3Config() E3Config {
	return E3Config{
		Sizes:       []int{64, 128, 256, 512, 1024},
		OfferedGbps: 38,
		Window:      4 * sim.Millisecond,
		Flows:       4,
	}
}

// E3Point is one x-position of Figure 3b.
type E3Point struct {
	Size         int
	FAALinkGbps  float64 // switch↔RNIC bandwidth used by FAA req+resp
	E2EGbps      float64 // delivered end-to-end goodput with the primitive
	BaselineGbps float64 // delivered goodput without the primitive
	CounterOK    bool    // remote + pending == ground truth
	Updates      int64
	FAAIssued    int64
}

// e3Run measures one packet size, with or without the primitive.
func e3Run(cfg E3Config, size int, withPrimitive bool) E3Point {
	memServers := 0
	if withPrimitive {
		memServers = 1
	}
	tb, err := gem.New(gem.Options{Seed: 3, Hosts: 2, MemoryServers: memServers})
	if err != nil {
		panic(err)
	}
	var ss *gem.StateStore
	if withPrimitive {
		ch, err := tb.Establish(0, gem.ChannelSpec{RegionSize: 1 << 20})
		if err != nil {
			panic(err)
		}
		ss, err = gem.NewStateStore(ch, gem.StateStoreConfig{Counters: 4096})
		if err != nil {
			panic(err)
		}
		tb.Dispatcher.Register(ch, ss)
	}
	tb.SetPipeline(func(ctx *gem.Context) {
		if ctx.Pkt == nil || !ctx.Pkt.HasIPv4 {
			ctx.Drop()
			return
		}
		if ss != nil {
			ss.UpdateFlow(gem.FlowOf(ctx.Pkt))
		}
		switch ctx.Pkt.Eth.Dst {
		case tb.Hosts[1].MAC:
			ctx.Emit(1, ctx.Frame)
		case tb.Hosts[0].MAC:
			ctx.Emit(0, ctx.Frame)
		default:
			ctx.Drop()
		}
	})
	gen := &flowgen.CBR{
		Src: tb.Hosts[0], Dst: tb.Hosts[1], Port: tb.HostPort(0),
		FrameLen: size, RateBps: cfg.OfferedGbps * 1e9, FlowCount: cfg.Flows,
	}
	gen.Start(tb.Engine, 0)
	tb.RunFor(cfg.Window)
	gen.Stop()

	var p E3Point
	p.Size = size
	// Snapshot the memory-link meters over the window, before the drain.
	if withPrimitive {
		p.FAALinkGbps = float64(memLinkBytes(tb)) * 8 / cfg.Window.Seconds() / 1e9
	}
	delivered := tb.Hosts[1].Received
	p.E2EGbps = float64(delivered) * float64(size) * 8 / cfg.Window.Seconds() / 1e9

	tb.Run() // drain
	if ss != nil {
		remote := remoteSum(tb, ss, nil, 4096)
		truth := uint64(ss.Stats.Updates)
		p.CounterOK = remote+ss.PendingTotal() == truth && ss.Stats.DroppedUpdates == 0
		p.Updates = ss.Stats.Updates
		p.FAAIssued = ss.Stats.FAAIssued
		if tb.ServerCPUOps() != 0 {
			panic("E3: memory server CPU touched")
		}
	}
	return p
}

// RunE3 executes the Figure 3b reproduction.
func RunE3(cfg E3Config) (*Table, []E3Point) {
	var points []E3Point
	t := &Table{
		ID:    "E3",
		Title: "Figure 3b: state-store primitive bandwidth overhead and accuracy",
		Columns: []string{
			"packet size (B)", "FAA link bw (Gbps)", "e2e goodput (Gbps)",
			"baseline goodput", "counter exact",
		},
	}
	for _, size := range cfg.Sizes {
		with := e3Run(cfg, size, true)
		base := e3Run(cfg, size, false)
		with.BaselineGbps = base.E2EGbps
		points = append(points, with)
		t.AddRow(fmt.Sprintf("%d", size), f2(with.FAALinkGbps), f1(with.E2EGbps),
			f1(with.BaselineGbps), fmt.Sprintf("%v", with.CounterOK))
	}
	t.AddNote("paper: FAA traffic consumes ≈2.1 Gbps on average, counter 100%% accurate,")
	t.AddNote("no end-to-end throughput degradation; the overhead is capped by the RNIC's")
	t.AddNote("Fetch-and-Add rate, so the curve is flat in packet size")
	return t, points
}
