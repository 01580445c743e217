package harness

import (
	"fmt"

	"gem"
	"gem/internal/faults"
	"gem/internal/sim"
	"gem/internal/wire"
)

// E9 is the chaos experiment: the §7 open problems ("improve the robustness
// of the architecture by handling switch and server failures") exercised
// end-to-end. Four deterministic scenarios share one seed:
//
//   - E9a: a reliable state store rides out bursty loss, bit corruption,
//     jitter, and one server crash/restart — the counter is exactly correct
//     afterwards (strict PSN + atomic replay cache + retransmit window).
//   - E9b: failover to a standby when the primary dies, escalated by the
//     retransmitter's retry budget, then failback when the primary returns.
//     Retargeted in-flight requests make this at-least-once, not exact.
//   - E9c: all three primitives running through a scheduled link flap in
//     their explicit degraded modes (lookup → CPU slow path, state store →
//     local accumulation + reconcile, packet buffer → stop spilling).
//   - E9d: adaptive RTO vs the fixed-100µs baseline under 1 ms latency
//     spikes — fewer retransmissions for the same (exact) result.

// E9Config parameterizes the chaos experiment.
type E9Config struct {
	// Seed drives every random model in all four scenarios.
	Seed int64

	// E9a: chaos state store.
	AUpdates   int
	ACrashAt   sim.Time
	ARestartAt sim.Time

	// E9b: failover + failback.
	BUpdates   int
	BCrashAt   sim.Time
	BRestartAt sim.Time

	// E9c: degraded modes through a link flap.
	CFrames    int
	CFlapStart sim.Time
	CFlapEnd   sim.Time

	// E9d: RTO adaptation.
	DUpdates   int
	DSpikeRate float64
	DSpike     sim.Duration
}

// DefaultE9Config returns the full-experiment settings.
func DefaultE9Config() E9Config {
	return E9Config{
		Seed:     9,
		AUpdates: 500, ACrashAt: at(150), ARestartAt: at(400),
		BUpdates: 800, BCrashAt: at(200), BRestartAt: at(700),
		CFrames: 800, CFlapStart: at(300), CFlapEnd: at(500),
		DUpdates: 300, DSpikeRate: 0.2, DSpike: 1 * sim.Millisecond,
	}
}

func at(us int64) sim.Time { return sim.Time(us * int64(sim.Microsecond)) }

// E9Result is flat and comparable: the reproducibility invariant is that two
// runs with the same config produce equal results (==).
type E9Result struct {
	// E9a.
	AUpdates     int64
	ARemote      uint64
	APending     uint64
	AExact       bool
	ARetransmits int64
	ANaks        int64
	ARTTSamples  int64
	ADrops       int64 // frames lost to the Gilbert–Elliott models
	ACorrupted   int64
	ABadICRC     int64

	// E9b.
	BFailovers    int64
	BFailbacks    int64
	BStaleDropped int64
	BEscalations  int64
	BRetargeted   int64
	BOnPrimary    uint64
	BOnStandby    uint64
	BPending      uint64
	BNoLoss       bool // committed + pending covers every update

	// E9c.
	CRemote           uint64
	CPending          uint64
	CExact            bool
	CDegradedMisses   int64
	CDegradedUpdates  int64
	CDegradedBypassed int64
	CReconciles       int64
	CStored           int64
	CLoaded           int64

	// E9d.
	DFixedRetransmits    int64
	DAdaptiveRetransmits int64
	DFixedExact          bool
	DAdaptiveExact       bool
	DAdaptiveWins        bool

	// PendingEvents sums leftover event-queue entries across scenarios
	// after their engines report quiescence; it must be 0.
	PendingEvents int
}

// e9a: one reliable state store against one server, with composed link
// faults in both directions and a crash/restart cycle. Because the server
// restarts (DRAM and atomic replay cache intact) rather than being replaced,
// the retransmit window gives exactly-once counting.
func e9a(cfg E9Config, res *E9Result) {
	tb, ch, rt := reliableBed(cfg.Seed, 0, 8)
	rt.EnableAdaptiveRTO()
	ss, err := gem.NewStateStore(ch, gem.StateStoreConfig{Counters: bedCounters})
	if err != nil {
		panic(err)
	}
	ss.SetShardRetransmitter(0, rt)

	// A hotter burst-entry rate than DefaultGilbertElliott: the invariant
	// "loss actually happened" must hold at every seed, and 0.002/frame over
	// a few hundred frames leaves even odds of a clean run.
	lossy := func() *faults.GilbertElliott {
		return &faults.GilbertElliott{PGoodToBad: 0.01, PBadToGood: 0.2, LossBad: 0.5}
	}
	req := &faults.LinkFaults{
		Loss: lossy(),
		// Several bits per event: single flips can land entirely in bytes the
		// ICRC masks (Ethernet header, IP TTL/TOS/checksum) and go undetected
		// on an unlucky seed, which is fine for safety but leaves the
		// verification path untested.
		Corrupt: &faults.Corruptor{Rate: 0.02, MaxBits: 4},
		Jitter:  &faults.Jitter{Max: 200 * sim.Nanosecond},
	}
	resp := &faults.LinkFaults{Loss: lossy()}
	tb.MemNICs[0].Port().Peer().SetFaultInjector(req) // switch → server
	tb.MemNICs[0].Port().SetFaultInjector(resp)       // server → switch
	// AExact pins remote+pending == updates across the outage, which needs a
	// memory-intact restart (process restart, not power cycle) — E13 owns
	// the wiped-DRAM story.
	schedA := faults.CrashRestart(tb.MemNICs[0], cfg.ACrashAt, cfg.ARestartAt)
	schedA.Loss = faults.CrashPreserve
	schedA.Install(tb.Engine)

	tickUpdates(tb, ss, cfg.AUpdates)
	tb.Run()

	remote := remoteSum(tb, ss, nil, bedCounters)
	res.AUpdates = ss.Stats.Updates
	res.ARemote = remote
	res.APending = ss.PendingTotal()
	res.AExact = remote+ss.PendingTotal() == uint64(ss.Stats.Updates)
	res.ARetransmits = rt.Retransmits
	res.ANaks = rt.NaksSeen
	res.ARTTSamples = rt.RTTSamples
	res.ADrops = req.Loss.Drops + resp.Loss.Drops
	res.ACorrupted = req.Corrupt.Corrupted
	res.ABadICRC = tb.MemNICs[0].Stats.BadICRC
	res.PendingEvents += tb.PendingEvents()
}

// e9b: failover to the standby when the primary dies, escalated by the
// retransmitter's retry budget, then failback once it answers probes again.
func e9b(cfg E9Config, res *E9Result) {
	b := runFailoverBed(cfg.Seed, nil, cfg.BCrashAt, cfg.BRestartAt, cfg.BUpdates, 900*sim.Microsecond)
	res.BFailovers = b.fo.Failovers
	res.BFailbacks = b.fo.Failbacks
	res.BStaleDropped = b.fo.StaleDropped
	res.BEscalations = b.rt.Escalations
	res.BRetargeted = b.rt.Retargeted
	res.BOnPrimary = remoteSum(b.tb, b.ss, b.dataP, bedCounters)
	res.BOnStandby = remoteSum(b.tb, b.ss, b.dataS, bedCounters)
	res.BPending = b.ss.PendingTotal()
	// Retargeting is at-least-once: duplicates may inflate the committed
	// sum, but nothing may be lost.
	res.BNoLoss = res.BOnPrimary+res.BOnStandby+res.BPending >= uint64(cfg.BUpdates)
	res.PendingEvents += b.tb.PendingEvents()
}

// e9c: lookup table, state store, and packet buffer all running while the
// memory link flaps. A (control-plane) degradation schedule flips each
// primitive into its degraded mode just before the outage and restores it
// just after; the state store's counter stays exactly correct.
func e9c(cfg E9Config, res *E9Result) {
	tb, err := gem.New(gem.Options{Seed: cfg.Seed, Hosts: 2, MemoryServers: 1})
	if err != nil {
		panic(err)
	}
	ltCfg := gem.LookupConfig{Entries: 64, MaxPktBytes: 1536}
	chLT, err := tb.Establish(0, gem.ChannelSpec{
		RegionBase: 0x10000000, RegionSize: ltCfg.Entries * ltCfg.EntrySize(),
	})
	if err != nil {
		panic(err)
	}
	chSS, err := tb.Establish(0, gem.ChannelSpec{RegionBase: 0x20000000, RegionSize: 4096})
	if err != nil {
		panic(err)
	}
	chPB, err := tb.Establish(0, gem.ChannelSpec{RegionBase: 0x30000000, RegionSize: 1 << 16})
	if err != nil {
		panic(err)
	}
	lt, err := gem.NewLookupTable(chLT, ltCfg)
	if err != nil {
		panic(err)
	}
	action := gem.SetDSCPAction(46)
	region := tb.Region(chLT)
	for i := 0; i < ltCfg.Entries; i++ {
		if err := gem.PopulateLookupEntry(region, ltCfg, i, action); err != nil {
			panic(err)
		}
	}
	lt.DefaultOutPort = 1
	lt.SlowPath = func(wire.FlowKey) (gem.LookupAction, bool) { return action, true }
	ss, err := gem.NewStateStore(chSS, gem.StateStoreConfig{Counters: bedCounters})
	if err != nil {
		panic(err)
	}
	// HighWaterBytes 1: every admitted packet detours, keeping the remote
	// ring busy so the flap actually has spill traffic to threaten.
	pb, err := gem.NewPacketBuffer([]*gem.Channel{chPB}, 1, gem.PacketBufferConfig{
		HighWaterBytes: 1,
	})
	if err != nil {
		panic(err)
	}
	tb.Dispatcher.Register(chLT, lt)
	tb.Dispatcher.Register(chSS, ss)
	pb.RegisterWith(tb.Dispatcher)
	tb.Switch.Hooks = pb
	tb.SetPipeline(func(ctx *gem.Context) {
		if ctx.Pkt == nil || !ctx.Pkt.HasIPv4 {
			ctx.Drop()
			return
		}
		ss.Update(int(ctx.Pkt.UDP.SrcPort)%bedCounters, 1)
		if ctx.Pkt.UDP.SrcPort%2 == 0 {
			lt.Lookup(ctx, ctx.Frame, ctx.Pkt)
		} else {
			pb.Admit(ctx, ctx.Frame)
		}
	})

	flap := faults.FlapWindow{Start: cfg.CFlapStart, End: cfg.CFlapEnd}
	down := &faults.LinkFaults{Flaps: []faults.FlapWindow{flap}}
	up := &faults.LinkFaults{Flaps: []faults.FlapWindow{flap}}
	tb.MemNICs[0].Port().Peer().SetFaultInjector(down)
	tb.MemNICs[0].Port().SetFaultInjector(up)

	// Degradation schedule: enter degraded mode one detection delay before
	// the flap, reconcile one after — the margin keeps the state store's
	// in-flight window clear of the outage, preserving exactness.
	margin := 10 * sim.Microsecond
	tb.Engine.ScheduleAt(cfg.CFlapStart.Add(-margin), func() {
		lt.SetDegraded(true)
		ss.SetDegraded(true)
		pb.SetDegraded(true)
	})
	tb.Engine.ScheduleAt(cfg.CFlapEnd.Add(margin), func() {
		lt.SetDegraded(false)
		ss.Reconcile()
		pb.SetDegraded(false)
	})

	sent := 0
	tb.Engine.Ticker(1*sim.Microsecond, func() bool {
		frame := tb.DataFrame(0, 1, 256, uint16(5000+sent%16), 9999)
		tb.SendFrame(0, frame)
		sent++
		return sent < cfg.CFrames
	})
	tb.Run()

	remote := remoteSum(tb, ss, nil, bedCounters)
	res.CRemote = remote
	res.CPending = ss.PendingTotal()
	res.CExact = remote+ss.PendingTotal() == uint64(ss.Stats.Updates)
	res.CDegradedMisses = lt.Stats.DegradedMisses
	res.CDegradedUpdates = ss.Stats.DegradedUpdates
	res.CDegradedBypassed = pb.Stats.DegradedBypassed
	res.CReconciles = ss.Stats.Reconciles
	res.CStored = pb.Stats.Stored
	res.CLoaded = pb.Stats.Loaded
	res.PendingEvents += tb.PendingEvents()
}

// e9d: the same reliable counter under heavy-tailed latency (1 ms spikes on
// the request path), once with the fixed 100 µs timeout and once with the
// adaptive RTO. Both stay exact; the adaptive run retransmits less.
func e9d(cfg E9Config, adaptive bool) (retransmits int64, exact bool) {
	// Window 1 isolates the retransmission *timer*: with a pipelined window
	// a delayed request shows up as a PSN gap and the NIC's NAK recovers it
	// at RTT timescale regardless of the RTO policy (both arms would measure
	// the NAK fast path and tie). One request in flight means no gap signal
	// ever exists and the timer alone decides when to resend.
	tb, ch, rt := reliableBed(cfg.Seed, 0, 1)
	if adaptive {
		rt.EnableAdaptiveRTO()
	}
	tb.MemNICs[0].Port().Peer().SetFaultInjector(&faults.LinkFaults{
		Jitter: &faults.Jitter{SpikeRate: cfg.DSpikeRate, Spike: cfg.DSpike},
	})
	v := pumpFAA(tb, ch, rt, cfg.DUpdates, 2*sim.Microsecond)
	return rt.Retransmits, v == uint64(cfg.DUpdates)
}

// RunE9 executes the chaos experiment.
func RunE9(cfg E9Config) (*Table, E9Result) {
	var res E9Result
	e9a(cfg, &res)
	e9b(cfg, &res)
	e9c(cfg, &res)
	res.DFixedRetransmits, res.DFixedExact = e9d(cfg, false)
	res.DAdaptiveRetransmits, res.DAdaptiveExact = e9d(cfg, true)
	res.DAdaptiveWins = res.DAdaptiveRetransmits < res.DFixedRetransmits

	t := &Table{
		ID:      "E9",
		Title:   "chaos: recovery and degraded modes under injected faults",
		Columns: []string{"scenario", "invariant", "value", "detail"},
	}
	t.AddRow("a: loss+corruption+crash", "counter exact",
		fmt.Sprintf("%v", res.AExact),
		fmt.Sprintf("%d updates, %d remote, %d rexmit, %d naks, %d dropped, %d corrupted",
			res.AUpdates, res.ARemote, res.ARetransmits, res.ANaks, res.ADrops, res.ACorrupted))
	t.AddRow("b: failover+failback", "no update lost",
		fmt.Sprintf("%v", res.BNoLoss),
		fmt.Sprintf("%d failovers, %d failbacks, %d retargeted, %d stale dropped, %d escalations",
			res.BFailovers, res.BFailbacks, res.BRetargeted, res.BStaleDropped, res.BEscalations))
	t.AddRow("c: degraded through flap", "counter exact",
		fmt.Sprintf("%v", res.CExact),
		fmt.Sprintf("%d slow-path misses, %d degraded updates, %d degraded bypasses, %d reconciles",
			res.CDegradedMisses, res.CDegradedUpdates, res.CDegradedBypassed, res.CReconciles))
	t.AddRow("d: RTO under 1ms spikes", "adaptive < fixed",
		fmt.Sprintf("%v", res.DAdaptiveWins),
		fmt.Sprintf("fixed-100µs %d rexmit (exact=%v), adaptive %d rexmit (exact=%v)",
			res.DFixedRetransmits, res.DFixedExact, res.DAdaptiveRetransmits, res.DAdaptiveExact))
	t.AddNote("every fault model draws from the engine's seeded RNG: same seed, same run —")
	t.AddNote("recovery is adaptive (RTT-tracking RTO, retry budget) and degradation explicit")
	return t, res
}
