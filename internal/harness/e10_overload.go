package harness

import (
	"fmt"

	"gem"
	"gem/internal/sim"
	"gem/internal/wire"
)

// E10 is the overload experiment: the robustness tentpole exercised past
// capacity. Two scenario families share one seed:
//
//   - Incast: 4 senders at 1×/2×/4× the receiver's line rate through a
//     packet buffer striped over two memory servers, with per-channel credit
//     windows, per-server occupancy tiers gating new spills, and priority
//     shedding (one sender marks DSCP EF). High-priority traffic must be
//     delivered losslessly at 1× and 2× while low-priority traffic is shed
//     — counted, never silently.
//   - Lookup-miss + counter storm: every packet both misses the lookup
//     table (deposit mode) and updates the state store, at rates below and
//     above the RNIC's atomic ceiling. Credit windows bound in-flight work;
//     the state store's admitted counts stay exact for high priority.
//
// An unbounded ablation (UnlimitedWindow) reruns the 2× points with credit
// refusal disabled, demonstrating the unbounded-growth baseline the windows
// prevent.

// E10Config parameterizes the overload experiment.
type E10Config struct {
	// Seed drives every random model in all scenarios.
	Seed int64

	// Incast: per-sender frame count is SendWindow / interval where the
	// base interval corresponds to 10 Gbps per sender (4 senders, 40G line).
	SendWindow sim.Duration
	FrameLen   int

	// Storm: packets per run and the two packet intervals (below / above
	// the RNIC atomic ceiling of ~1.29 M ops/s).
	StormPackets      int
	StormSlowInterval sim.Duration
	StormFastInterval sim.Duration
}

// DefaultE10Config returns the full-experiment settings.
func DefaultE10Config() E10Config {
	return E10Config{
		Seed:              10,
		SendWindow:        400 * sim.Microsecond,
		FrameLen:          1000,
		StormPackets:      1200,
		StormSlowInterval: 1600 * sim.Nanosecond,
		StormFastInterval: 500 * sim.Nanosecond,
	}
}

// E10IncastPoint is one incast intensity's outcome.
type E10IncastPoint struct {
	Intensity        int // multiple of the receiver's line rate
	HighSent         int64
	HighDelivered    int64
	LowSent          int64
	LowDelivered     int64
	ShedLow          int64
	PressureBypassed int64
	Stored           int64
	Loaded           int64
	RingDrops        int64
	SpillGateEntries int64
	PeakReads        int64 // max per-channel outstanding READs observed
	PeakFrac0        float64
	PeakFrac1        float64
	GlobalTier       int
	NICPeakTx        int
	HighLossFree     bool
}

// E10StormPoint is one storm intensity's outcome.
type E10StormPoint struct {
	IntervalNs     int64
	HighUpdates    int64
	HighRemote     uint64
	HighPending    uint64
	HighExact      bool
	ShedUpdates    int64
	ShedMisses     int64
	Fallbacks      int64
	FAAPeak        int64
	MissPeak       int64
	DroppedUpdates int64
}

// E10Result is flat and comparable: two runs with the same config must be
// identical (==).
type E10Result struct {
	Incast [3]E10IncastPoint
	Storm  [2]E10StormPoint

	// Unbounded ablation at 2× (incast) / fast interval (storm).
	UnboundedPeakReads int64
	UnboundedNICPeakTx int
	UnboundedFAAPeak   int64
	UnboundedMissPeak  int64

	// Snap aggregates the 2× incast and fast-storm testbeds' robustness
	// counters through the single gem.Stats() surface.
	Snap gem.StatsSnapshot

	// PendingEvents sums leftover event-queue entries; it must be 0.
	PendingEvents int
}

// e10incast runs one incast intensity. bounded=false is the ablation: the
// credit windows observe but never refuse, spill gates and shedding are off,
// and no pressure monitor is installed.
func e10incast(cfg E10Config, intensity int, bounded bool, res *E10Result) E10IncastPoint {
	const (
		regionBytes = 256 << 10
		senders     = 4
	)
	pt := E10IncastPoint{Intensity: intensity}
	tb, err := gem.New(gem.Options{Seed: cfg.Seed, Hosts: senders + 1, MemoryServers: 2})
	if err != nil {
		panic(err)
	}
	recvPort := tb.SwitchPortOfHost(senders)

	alloc, err := tb.NewAllocator(gem.AllocatorConfig{PerServerBytes: 512 << 10})
	if err != nil {
		panic(err)
	}
	var chans []*gem.Channel
	for i := 0; i < 2; i++ {
		ch, _, err := alloc.Allocate(regionBytes, gem.ChannelSpec{})
		if err != nil {
			panic(err)
		}
		chans = append(chans, ch)
	}

	pbCfg := gem.PacketBufferConfig{
		EntrySize:           2048,
		HighWaterBytes:      64 << 10,
		LowWaterBytes:       32 << 10,
		MaxOutstandingReads: 16,
		PerChannelWindow:    8,
		ReadLowWatermark:    4,
		SpillHighWaterBytes: 128 << 10,
		ShedRingEntries:     160,
	}
	if !bounded {
		pbCfg.UnlimitedWindow = true
		pbCfg.MaxOutstandingReads = 100000
		pbCfg.LowWaterBytes = 1 << 20
		pbCfg.SpillHighWaterBytes = 0
		pbCfg.ShedRingEntries = 0
	}
	pb, err := gem.NewPacketBuffer(chans, recvPort, pbCfg)
	if err != nil {
		panic(err)
	}
	pb.RegisterWith(tb.Dispatcher)
	tb.Switch.Hooks = pb

	var mon *gem.PressureMonitor
	if bounded {
		mon = gem.NewPressureMonitor(gem.PressureConfig{})
		for i := 0; i < 2; i++ {
			i := i
			mon.AddServer(i, regionBytes)
			mon.AddGauge(i, func() int64 { return pb.ChannelOccupancyBytes(i) })
		}
		pb.AdmitGate = func(chanIdx int) bool {
			return mon.Tier(chanIdx) < gem.PressureCritical
		}
		tb.SetPressureMonitor(mon)
	}

	tb.SetPipeline(func(ctx *gem.Context) {
		if ctx.Pkt == nil || !ctx.Pkt.HasIPv4 {
			ctx.Drop()
			return
		}
		pb.AdmitPrio(ctx, ctx.Frame, ctx.Priority)
	})

	// Count deliveries at the receiver's switch egress by DSCP.
	tb.Switch.TraceFn = func(event string, port int, frame []byte) {
		if event != "tx" || port != recvPort {
			return
		}
		if len(frame) > wire.EthernetLen+1 && frame[wire.EthernetLen+1]>>2 == 46 {
			pt.HighDelivered++
		} else {
			pt.LowDelivered++
		}
	}

	// Sender i transmits cfg.FrameLen frames at intensity × 10 Gbps; sender
	// 0 marks DSCP EF (high priority). Starts stagger by 100 ns so frames
	// interleave deterministically instead of colliding on one tick.
	frameBits := sim.Duration((cfg.FrameLen + wire.EthernetFramingOverhead) * 8)
	interval := frameBits * sim.Nanosecond / sim.Duration(intensity) / 10
	frames := int(cfg.SendWindow / interval)
	for i := 0; i < senders; i++ {
		i := i
		tb.Engine.Schedule(sim.Duration(i*100)*sim.Nanosecond, func() {
			sent := 0
			tb.Engine.Ticker(interval, func() bool {
				frame := tb.DataFrame(i, senders, cfg.FrameLen, uint16(5000+i), 9999)
				if i == 0 {
					wire.SetDSCP(frame, 46)
					pt.HighSent++
				} else {
					pt.LowSent++
				}
				tb.SendFrame(i, frame)
				sent++
				return sent < frames
			})
		})
	}
	tb.Run()

	pt.ShedLow = pb.Stats.ShedLowPrio
	pt.PressureBypassed = pb.Stats.PressureBypassed
	pt.Stored = pb.Stats.Stored
	pt.Loaded = pb.Stats.Loaded
	pt.RingDrops = pb.Stats.RingDrops
	pt.SpillGateEntries = pb.Stats.SpillGateEntries
	for i := 0; i < 2; i++ {
		if p := pb.ShardCredits(i).Stats.Peak; p > pt.PeakReads {
			pt.PeakReads = p
		}
		if p := tb.MemNICs[i].Port().PeakQueuedFrames(); p > pt.NICPeakTx {
			pt.NICPeakTx = p
		}
	}
	if mon != nil {
		pt.PeakFrac0 = mon.PeakFrac(0)
		pt.PeakFrac1 = mon.PeakFrac(1)
		pt.GlobalTier = int(mon.GlobalTier())
	}
	pt.HighLossFree = pt.HighDelivered == pt.HighSent
	if bounded && intensity == 2 {
		res.Snap = res.Snap.Add(tb.Stats())
	}
	res.PendingEvents += tb.PendingEvents()
	return pt
}

// e10storm runs one lookup-miss + counter storm. Every packet updates the
// state store and misses the lookup table; every 4th packet is high
// priority. bounded=false is the UnlimitedWindow ablation.
func e10storm(cfg E10Config, interval sim.Duration, bounded bool, res *E10Result) E10StormPoint {
	b := newStormBed(cfg.Seed, !bounded)
	b.start(interval, cfg.StormPackets)
	b.tb.Run()

	ss, lt := b.ss, b.lt
	pt := E10StormPoint{IntervalNs: int64(interval), HighUpdates: b.highSent}
	// Ports in the high band count on counters [0, 8).
	pt.HighRemote = remoteSum(b.tb, ss, nil, 8)
	for i := 0; i < 8; i++ {
		pt.HighPending += ss.Pending(i)
	}
	pt.HighExact = pt.HighRemote+pt.HighPending == uint64(pt.HighUpdates)
	pt.ShedUpdates = ss.Stats.ShedUpdates
	pt.ShedMisses = lt.Stats.ShedMisses
	pt.Fallbacks = lt.Stats.CreditFallbacks
	pt.FAAPeak = ss.ShardCredits(0).Stats.Peak
	pt.MissPeak = lt.ShardCredits(0).Stats.Peak
	pt.DroppedUpdates = ss.Stats.DroppedUpdates
	if bounded && interval == cfg.StormFastInterval {
		res.Snap = res.Snap.Add(b.tb.Stats())
	}
	res.PendingEvents += b.tb.PendingEvents()
	return pt
}

// RunE10 executes the overload experiment.
func RunE10(cfg E10Config) (*Table, E10Result) {
	var res E10Result
	for i, intensity := range []int{1, 2, 4} {
		res.Incast[i] = e10incast(cfg, intensity, true, &res)
	}
	res.Storm[0] = e10storm(cfg, cfg.StormSlowInterval, true, &res)
	res.Storm[1] = e10storm(cfg, cfg.StormFastInterval, true, &res)

	ablIncast := e10incast(cfg, 2, false, &res)
	res.UnboundedPeakReads = ablIncast.PeakReads
	res.UnboundedNICPeakTx = ablIncast.NICPeakTx
	ablStorm := e10storm(cfg, cfg.StormFastInterval, false, &res)
	res.UnboundedFAAPeak = ablStorm.FAAPeak
	res.UnboundedMissPeak = ablStorm.MissPeak

	t := &Table{
		ID:      "E10",
		Title:   "overload: credits, pressure tiers, and priority shedding past capacity",
		Columns: []string{"scenario", "invariant", "value", "detail"},
	}
	for _, pt := range res.Incast {
		t.AddRow(fmt.Sprintf("incast %dx", pt.Intensity), "high-prio lossless",
			fmt.Sprintf("%v", pt.HighLossFree),
			fmt.Sprintf("high %d/%d, low %d/%d (shed %d), stored %d, peak reads %d, tier %d, peak occ %.2f/%.2f",
				pt.HighDelivered, pt.HighSent, pt.LowDelivered, pt.LowSent,
				pt.ShedLow, pt.Stored, pt.PeakReads, pt.GlobalTier,
				pt.PeakFrac0, pt.PeakFrac1))
	}
	for _, pt := range res.Storm {
		t.AddRow(fmt.Sprintf("storm @%dns", pt.IntervalNs), "high-prio counters exact",
			fmt.Sprintf("%v", pt.HighExact),
			fmt.Sprintf("high %d = remote %d + pending %d; shed %d updates / %d misses, %d fallbacks, FAA peak %d",
				pt.HighUpdates, pt.HighRemote, pt.HighPending,
				pt.ShedUpdates, pt.ShedMisses, pt.Fallbacks, pt.FAAPeak))
	}
	t.AddRow("unbounded ablation", "windows removed",
		fmt.Sprintf("reads %d, FAA %d", res.UnboundedPeakReads, res.UnboundedFAAPeak),
		fmt.Sprintf("vs bounded reads %d / FAA %d; NIC peak tx %d vs %d",
			res.Incast[1].PeakReads, res.Storm[1].FAAPeak,
			res.UnboundedNICPeakTx, res.Incast[1].NICPeakTx))
	t.AddNote("sheds are counted admission decisions, never silent loss; high priority keeps")
	t.AddNote("exactness (delivery, counters) while credit windows bound all in-flight work")
	return t, res
}
