package harness

import (
	"fmt"

	"gem"
	"gem/internal/rnic"
	"gem/internal/sim"
)

// E11 measures what the striped transport buys: aggregate throughput when
// one logical primitive fans out over several memory servers, and the
// frames-on-wire reduction when the state store holds deltas to batch them
// (the table and its note keep the historical "doorbell" label).
//
// Three sub-experiments:
//
//	E11a (FAA scaling)  — a striped state store saturated well past one
//	     RNIC's atomic ceiling; the FAA issue rate must track the number
//	     of servers (each shard has its own NIC, credits, and PSN stream).
//	E11b (READ scaling) — a striped packet buffer drains a preloaded ring
//	     through READs with each NIC's host-memory fetch rate as the
//	     bottleneck; drain goodput must track the number of servers.
//	E11c (doorbell)     — same offered update stream with and without
//	     held batching (Batch plus BatchMaxAge); frames on the wire must
//	     shrink by the configured Batch factor.
type E11Config struct {
	// Seed drives the whole testbed (runs with equal seeds replay exactly).
	Seed int64

	// Servers are the fan-out widths to sweep (paper-style 1/2/4).
	Servers []int

	// E11a: striped state store under atomic saturation.
	Counters       int
	MaxOutstanding int
	InjectEvery    sim.Duration // update injection period (≪ 1/AtomicOpsPerSec)
	Window         sim.Duration // measurement window

	// E11b: striped packet buffer drain.
	ReadFrames     int     // preloaded ring entries
	FrameLen       int     // entry payload size
	ReadGbpsPerNIC float64 // per-NIC READ payload ceiling (the bottleneck)

	// E11c: doorbell ablation.
	DoorbellUpdates int
	DoorbellEvery   sim.Duration // sub-ceiling pacing: unbatched = 1 frame/update
	DoorbellBatch   int
	DoorbellFlush   sim.Duration // BatchMaxAge; kept far above the run length
}

// DefaultE11Config returns the full-experiment settings.
func DefaultE11Config() E11Config {
	return E11Config{
		Seed:            1,
		Servers:         []int{1, 2, 4},
		Counters:        64,
		MaxOutstanding:  16,
		InjectEvery:     100 * sim.Nanosecond, // 10 M/s offered vs 1.29 M/s per NIC
		Window:          2 * sim.Millisecond,
		ReadFrames:      1200,
		FrameLen:        1500,
		ReadGbpsPerNIC:  8, // 4 NICs still fit under the 40G egress link
		DoorbellUpdates: 4800,
		DoorbellEvery:   5 * sim.Microsecond, // 200 k/s, under the atomic ceiling
		DoorbellBatch:   8,
		DoorbellFlush:   50 * sim.Millisecond,
	}
}

// E11Result is flat and comparable so reproducibility is a single ==.
type E11Result struct {
	// FAA issue rate (Mops/s) and exactness per fan-out width.
	FAARate1, FAARate2, FAARate4    float64
	FAAExact1, FAAExact2, FAAExact4 bool
	FAASpeedup2, FAASpeedup4        float64

	// READ drain goodput (Gbps) per fan-out width.
	ReadGbps1, ReadGbps2, ReadGbps4 float64
	ReadSpeedup2, ReadSpeedup4      float64

	// Doorbell ablation: frames on the wire for the same update stream.
	FramesUnbatched, FramesBatched int64
	FramesRatio                    float64
	DoorbellExact                  bool

	// PendingEvents sums leftover event-queue entries; it must be 0.
	PendingEvents int
}

// e11FAARun saturates a striped state store over `servers` memory servers
// and reports the FAA issue rate inside the window plus conservation after
// the drain.
func e11FAARun(cfg E11Config, servers int) (rateMops float64, exact bool, pending int) {
	tb, err := gem.New(gem.Options{Seed: cfg.Seed, MemoryServers: servers})
	if err != nil {
		panic(err)
	}
	chans := make([]*gem.Channel, servers)
	for i := range chans {
		ch, err := tb.Establish(i, gem.ChannelSpec{RegionSize: cfg.Counters * 8})
		if err != nil {
			panic(err)
		}
		chans[i] = ch
	}
	ss, err := gem.NewStripedStateStore(chans, gem.StateStoreConfig{
		Counters: cfg.Counters, MaxOutstanding: cfg.MaxOutstanding,
	})
	if err != nil {
		panic(err)
	}
	for _, ch := range chans {
		tb.Dispatcher.Register(ch, ss)
	}
	tb.SetPipeline(func(ctx *gem.Context) { ctx.Drop() })

	// Inject far past the per-NIC atomic ceiling; the issue rate clamps to
	// the aggregate service rate, which is what striping multiplies.
	injected := uint64(0)
	tb.Engine.Ticker(cfg.InjectEvery, func() bool {
		ss.Update(int(injected)%cfg.Counters, 1)
		injected++
		return tb.Now() < sim.Time(cfg.Window)
	})
	tb.RunFor(cfg.Window)
	faaInWindow := ss.Stats.FAAIssued

	tb.Run() // drain the backlog
	remote := remoteSum(tb, ss, nil, cfg.Counters)
	exact = remote+ss.PendingTotal() == injected && ss.Stats.DroppedUpdates == 0
	rateMops = float64(faaInWindow) / cfg.Window.Seconds() / 1e6
	return rateMops, exact, tb.PendingEvents()
}

// e11ReadRun preloads a striped ring, then drains it with each NIC's READ
// payload rate as the bottleneck and reports the forward goodput.
func e11ReadRun(cfg E11Config, servers int) (gbps float64, pending int) {
	// The 3 Gbps preload stays below the throttled WRITE service rate.
	b := newSpillBed(gem.Options{
		Seed: cfg.Seed, Hosts: 2, MemoryServers: servers,
		NIC: rnic.Config{MTU: 4096, ReadPayloadBps: cfg.ReadGbpsPerNIC * 1e9},
	}, 4<<20, cfg.FrameLen, 3)
	gbps = b.drainGbps(cfg.ReadFrames, cfg.FrameLen)
	return gbps, b.tb.PendingEvents()
}

// e11BatchRun replays the same paced update stream with or without held
// batching and reports frames on the wire plus exactness.
func e11BatchRun(cfg E11Config, batched bool) (frames int64, exact bool, pending int) {
	tb, err := gem.New(gem.Options{Seed: cfg.Seed, MemoryServers: 1})
	if err != nil {
		panic(err)
	}
	ch, err := tb.Establish(0, gem.ChannelSpec{RegionSize: 8 * 8})
	if err != nil {
		panic(err)
	}
	ssCfg := gem.StateStoreConfig{Counters: 8}
	if batched {
		ssCfg.Batch = uint64(cfg.DoorbellBatch)
		ssCfg.BatchMaxAge = cfg.DoorbellFlush // age flush stays out of the way
	}
	ss, err := gem.NewStateStore(ch, ssCfg)
	if err != nil {
		panic(err)
	}
	tb.Dispatcher.Register(ch, ss)
	tb.SetPipeline(func(ctx *gem.Context) { ctx.Drop() })

	// Sub-ceiling pacing: the unbatched path posts one FAA per update, so
	// the batched/unbatched frame ratio isolates the pending table's coalescing.
	injected := 0
	tb.Engine.Ticker(cfg.DoorbellEvery, func() bool {
		ss.Update(injected%8, 1)
		injected++
		return injected < cfg.DoorbellUpdates
	})
	tb.Run() // includes the final age-triggered flush
	remote := remoteSum(tb, ss, nil, 8)
	exact = remote+ss.PendingTotal() == uint64(cfg.DoorbellUpdates) &&
		ss.Stats.DroppedUpdates == 0
	return ss.Stats.FAAIssued, exact, tb.PendingEvents()
}

// RunE11 executes the striping + doorbell experiment.
func RunE11(cfg E11Config) (*Table, E11Result) {
	var res E11Result
	for _, n := range cfg.Servers {
		rate, exact, pend := e11FAARun(cfg, n)
		gbps, rpend := e11ReadRun(cfg, n)
		res.PendingEvents += pend + rpend
		switch n {
		case 1:
			res.FAARate1, res.FAAExact1, res.ReadGbps1 = rate, exact, gbps
		case 2:
			res.FAARate2, res.FAAExact2, res.ReadGbps2 = rate, exact, gbps
		case 4:
			res.FAARate4, res.FAAExact4, res.ReadGbps4 = rate, exact, gbps
		}
	}
	if res.FAARate1 > 0 {
		res.FAASpeedup2 = res.FAARate2 / res.FAARate1
		res.FAASpeedup4 = res.FAARate4 / res.FAARate1
	}
	if res.ReadGbps1 > 0 {
		res.ReadSpeedup2 = res.ReadGbps2 / res.ReadGbps1
		res.ReadSpeedup4 = res.ReadGbps4 / res.ReadGbps1
	}
	off, offExact, p1 := e11BatchRun(cfg, false)
	on, onExact, p2 := e11BatchRun(cfg, true)
	res.FramesUnbatched, res.FramesBatched = off, on
	res.DoorbellExact = offExact && onExact
	res.PendingEvents += p1 + p2
	if on > 0 {
		res.FramesRatio = float64(off) / float64(on)
	}

	t := &Table{
		ID:    "E11",
		Title: "Striped transport: multi-server scaling and doorbell batching",
		Columns: []string{
			"servers", "FAA rate (Mops/s)", "speedup", "exact",
			"READ drain (Gbps)", "speedup",
		},
	}
	row := func(n int, rate, spd float64, exact bool, gbps, rspd float64) {
		t.AddRow(fmt.Sprintf("%d", n), f2(rate), f2(spd), fmt.Sprintf("%v", exact),
			f1(gbps), f2(rspd))
	}
	row(1, res.FAARate1, 1, res.FAAExact1, res.ReadGbps1, 1)
	row(2, res.FAARate2, res.FAASpeedup2, res.FAAExact2, res.ReadGbps2, res.ReadSpeedup2)
	row(4, res.FAARate4, res.FAASpeedup4, res.FAAExact4, res.ReadGbps4, res.ReadSpeedup4)
	t.AddNote("one RNIC's atomic ceiling (1.29 Mops/s) caps every unsharded run; striping")
	t.AddNote("multiplies it because each shard brings its own NIC, credits and PSN stream")
	t.AddNote("doorbell ablation: %d frames unbatched vs %d batched (%.1fx, batch %d, exact %v)",
		res.FramesUnbatched, res.FramesBatched, res.FramesRatio, cfg.DoorbellBatch,
		res.DoorbellExact)
	return t, res
}
