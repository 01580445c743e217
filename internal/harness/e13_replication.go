package harness

import (
	"fmt"

	"gem"
	"gem/internal/faults"
	"gem/internal/sim"
)

// E13 is the replicated-remote-memory experiment: the loss E9/E12 could only
// measure becomes a loss the transport prevents. Four arms share one seed:
//
//   - Sync / Async (lossless failover): a state store's shard is replicated
//     onto an anti-affine second server via mirrored posting; mid-FAA-storm
//     the primary crashes, its DRAM wiped at restart (the honest CrashWipe
//     default). The failover group's heartbeats detect the crash and
//     OnFailover promotes the replica — the mirror replays its journal of
//     never-posted work, then the shard rebinds to the replica channel. Sync
//     is byte-exact: every admitted update is covered by the replica plus
//     the local backlog. Async bounds the replica lag instead; entries
//     declared lost past the bound are counted (LostDelta) and surfaced as
//     typed CQReplicaLost completions, so the loss accounting closes as an
//     inequality.
//   - Scrub (anti-entropy repair): the replica — not the primary — blips
//     mid-storm with DRAM intact, dropping mirrored posts on the floor. The
//     declared losses diverge the two copies; the seeded scrubber finds the
//     divergence once the mirror quiesces and copies the primary's bytes
//     over it, converging the windows byte-exactly. The replication lag also
//     rides the supervisor's pressure ladder here (Suspect while the replica
//     is behind).
//   - Off (wiped baseline): the same crash with no replication. Failover
//     rebinds to a standby region, but everything committed to the primary
//     before the crash dies with its DRAM — the measured loss this PR's
//     tentpole removes.

// E13Config parameterizes the replication experiment.
type E13Config struct {
	// Seed drives every random model in all four arms.
	Seed int64
	// Updates is the FAA storm length (one update per microsecond).
	Updates int
	// CrashAt/RestartAt bound the primary outage (crash arms). The restart
	// wipes DRAM: the default CrashLossMode.
	CrashAt   sim.Time
	RestartAt sim.Time
	// AsyncMaxLag bounds the async mirror's un-acknowledged journal.
	AsyncMaxLag int
	// BlipStart/BlipEnd bound the replica outage of the scrub arm (memory
	// intact — the replica's divergence is dropped posts, not wiped DRAM).
	BlipStart sim.Time
	BlipEnd   sim.Time
}

// DefaultE13Config returns the full-experiment settings.
func DefaultE13Config() E13Config {
	return E13Config{
		Seed:    13,
		Updates: 800, CrashAt: at(200), RestartAt: at(700),
		AsyncMaxLag: 4,
		BlipStart:   at(150), BlipEnd: at(250),
	}
}

// E13Arm is one arm's outcome. Flat and comparable.
type E13Arm struct {
	Mode         string
	Updates      int64  // admitted by the store
	Remote       uint64 // authoritative remote counter sum at the end
	Pending      uint64 // local backlog not yet on the wire
	MirroredFAAs int64
	ReplicaAcked int64
	BothAcked    int64
	ReplicaLost  int64 // journal entries declared lost (async bound)
	LostDelta    int64 // their summed FAA deltas — the loss upper bound
	LagMax       int64
	Replayed     int64 // journal entries a promotion replayed
	Promotions   int64
	Failovers    int64
	Failbacks    int64
	TypedErrors  int64 // CQReplicaLost completions seen by the shard QP
	Wiped        int64 // DRAM bytes the restart zeroed
	Lost         int64 // admitted - remote - pending (loss allowances aside)
}

// E13Result is flat and comparable: two runs with the same config must be
// identical (==).
type E13Result struct {
	// Anti-affine placement (identical across arms; recorded once).
	PMem, RMem int
	AntiAffine bool

	Sync E13Arm
	// SyncExact pins the tentpole: with the primary's DRAM wiped, every
	// admitted update is still covered by the replica plus the backlog.
	SyncExact bool

	Async E13Arm
	// AsyncBounded: remote + pending + declared-lost deltas cover every
	// admitted update (an inequality — a declared-lost post may still have
	// landed, so the declaration is an upper bound).
	AsyncBounded bool
	// AsyncLagBounded: the observed lag never exceeded MaxLag + 1 (the +1 is
	// the entry being posted, sampled before enforcement).
	AsyncLagBounded bool
	// AsyncLossTyped: every declared loss surfaced as a typed CQReplicaLost
	// completion on the primary shard's QP.
	AsyncLossTyped bool

	// Scrub arm.
	ScrubLost      int64 // losses declared during the replica blip
	ScrubTicks     int64
	ScrubSkipped   int64
	ScrubChecked   int64
	ScrubDiverged  int64
	ScrubRepairs   int64
	ScrubBytes     int64
	ScrubSuspect   int64 // supervisor Suspect entries — the lag pressure feed
	ScrubConverged bool  // primary and replica windows byte-equal at the end

	Off E13Arm
	// BaselineLossy: without replication the wiped primary costs real
	// updates — the loss the mirrored arms eliminate.
	BaselineLossy bool

	// PendingEvents sums leftover event-queue entries; it must be 0.
	PendingEvents int
}

// e13bed wires one arm's testbed: one switch host, two memory servers, data
// regions placed by the anti-affine allocator, probe channels for the
// failover heartbeats, and a state store on the primary data channel.
type e13bed struct {
	tb             *gem.Testbed
	dataP, dataR   *gem.Channel
	probeP, probeR *gem.Channel
	pMem, rMem     int
	ss             *gem.StateStore
	fo             *gem.Failover
	sup            *gem.Supervisor
}

func e13mkbed(cfg E13Config) *e13bed {
	tb, err := gem.New(gem.Options{Seed: cfg.Seed, Hosts: 1, MemoryServers: 2})
	if err != nil {
		panic(err)
	}
	alloc, err := tb.NewAllocator(gem.AllocatorConfig{PerServerBytes: 1 << 16})
	if err != nil {
		panic(err)
	}
	dataP, dataR, pMem, rMem, err := alloc.AllocateReplicated(4096, gem.ChannelSpec{})
	if err != nil {
		panic(err)
	}
	mkprobe := func(mem int) *gem.Channel {
		probe, err := tb.Establish(mem, gem.ChannelSpec{
			RegionBase: 0x30000000, RegionSize: 64, Mode: gem.PSNTolerant,
		})
		if err != nil {
			panic(err)
		}
		return probe
	}
	b := &e13bed{
		tb: tb, dataP: dataP, dataR: dataR,
		probeP: mkprobe(pMem), probeR: mkprobe(rMem),
		pMem: pMem, rMem: rMem,
	}
	b.ss, err = gem.NewStateStore(dataP, gem.StateStoreConfig{
		Counters: bedCounters, MaxOutstanding: 8,
	})
	if err != nil {
		panic(err)
	}
	tb.Dispatcher.Register(dataP, b.ss)
	tb.Dispatcher.Register(dataR, b.ss)
	tb.SetPipeline(func(ctx *gem.Context) { ctx.Drop() })
	return b
}

// start wires failover + supervisor and kicks off the update storm.
func (b *e13bed) start(cfg E13Config, supCfg gem.SupervisorConfig, onFailover func(old, new *gem.Channel)) {
	fo, err := gem.NewFailover([]*gem.Channel{b.probeP, b.probeR}, nil)
	if err != nil {
		panic(err)
	}
	fo.HeartbeatInterval = 20 * sim.Microsecond
	fo.CQ = b.ss.Transport().Shard(0)
	fo.OnFailover = onFailover
	fo.RegisterWith(b.tb.Dispatcher)
	b.fo = fo

	b.sup = gem.NewSupervisor(b.tb.Engine, supCfg)
	b.sup.Govern(gem.Govern("store", b.ss, fo))

	fo.Start()
	b.sup.Start()

	tickUpdates(b.tb, b.ss, cfg.Updates)
}

// finish drains the arm and reads the common counters; remote sums the
// counter window of every channel in chans.
func (b *e13bed) finish(cfg E13Config, until sim.Time, chans ...*gem.Channel) E13Arm {
	b.tb.RunFor(sim.Duration(until))
	b.fo.Stop()
	b.sup.Stop()
	b.tb.Run()

	var arm E13Arm
	for _, ch := range chans {
		arm.Remote += remoteSum(b.tb, b.ss, ch, bedCounters)
	}
	arm.Updates = b.ss.Stats.Updates
	arm.Pending = b.ss.PendingTotal()
	arm.Failovers = b.fo.Failovers
	arm.Failbacks = b.fo.Failbacks
	arm.TypedErrors = b.ss.Transport().Errors().ReplicaLost
	arm.Lost = arm.Updates - int64(arm.Remote) - int64(arm.Pending)
	ms := b.ss.MirrorStats()
	arm.MirroredFAAs = ms.MirroredFAAs
	arm.ReplicaAcked = ms.ReplicaAcked
	arm.BothAcked = ms.BothAcked
	arm.ReplicaLost = ms.ReplicaLost
	arm.LostDelta = ms.LostDelta
	arm.LagMax = ms.Lag.Max
	arm.Replayed = ms.Replayed
	arm.Promotions = ms.Promotions
	return arm
}

// e13crash runs one crash arm: the primary dies mid-storm and restarts with
// wiped DRAM. Replicated arms promote the replica on failover; the Off arm
// rebinds between the two data regions like E9b — and eats the wipe.
func e13crash(cfg E13Config, mode gem.ReplicationMode, res *E13Result) E13Arm {
	b := e13mkbed(cfg)
	if mode != gem.ReplicationOff {
		if _, err := b.ss.Replicate(0, b.dataR, gem.MirrorConfig{
			Mode: mode, MaxLag: cfg.AsyncMaxLag,
		}); err != nil {
			panic(err)
		}
	}
	dataOf := map[*gem.Channel]*gem.Channel{b.probeP: b.dataP, b.probeR: b.dataR}
	onFailover := func(_, newProbe *gem.Channel) {
		if mode != gem.ReplicationOff {
			// First switchover promotes the replica; the failback edge is a
			// no-op — a promoted shard stays where the surviving bytes are.
			b.ss.PromoteShard(0)
			return
		}
		b.ss.RebindShard(0, dataOf[newProbe])
	}
	b.start(cfg, gem.SupervisorConfig{}, onFailover)

	// The restart wipes DRAM (CrashWipe is the default): whatever only the
	// primary held is gone for real.
	sched := faults.CrashRestart(b.tb.MemNICs[b.pMem], cfg.CrashAt, cfg.RestartAt)
	sched.Install(b.tb.Engine)

	until := cfg.RestartAt + sim.Time(1500*sim.Microsecond)
	var arm E13Arm
	if mode == gem.ReplicationOff {
		// The baseline's surviving bytes are scattered: post-failback counts
		// on the primary, outage-window counts on the standby region.
		arm = b.finish(cfg, until, b.dataP, b.dataR)
	} else {
		arm = b.finish(cfg, until, b.dataR)
	}
	arm.Mode = mode.String()
	arm.Wiped = sched.Wiped
	if mode != gem.ReplicationOff {
		res.PMem, res.RMem = b.pMem, b.rMem
		res.AntiAffine = b.pMem != b.rMem
	}
	res.PendingEvents += b.tb.PendingEvents()
	return arm
}

// e13scrub runs the anti-entropy arm: an async mirror with a replica blip
// (memory intact — the divergence is dropped mirror posts, not wiped DRAM)
// and a scrubber that repairs it once the mirror quiesces.
func e13scrub(cfg E13Config, res *E13Result) {
	b := e13mkbed(cfg)
	m, err := b.ss.Replicate(0, b.dataR, gem.MirrorConfig{
		Mode: gem.ReplicationAsync, MaxLag: cfg.AsyncMaxLag,
	})
	if err != nil {
		panic(err)
	}
	// No failover: the primary stays authoritative throughout. The
	// supervisor still governs the store, with the replication-lag pressure
	// feed tuned to be the Suspect driver: enforceLag keeps the lag at the
	// bound (tier 1), so PressureTier 1 makes a behind replica a warning
	// signal, while the high DegradeErrors keeps the per-tick CQReplicaLost
	// bursts from jumping the store straight past Suspect.
	b.start(cfg, gem.SupervisorConfig{PressureTier: 1, DegradeErrors: 1 << 20},
		func(_, _ *gem.Channel) {})

	// Scrub only while the window is quiet: an in-flight mirrored FAA would
	// double-apply if the scrubber copied the primary underneath it. The
	// promotion gate is moot here (no failover) but spelled out anyway —
	// after a promotion the replica is authoritative and must not be
	// overwritten from a wiped primary.
	sc, err := b.tb.NewScrubber(b.dataP, b.dataR, 0, bedCounters*8, gem.ScrubConfig{
		Interval: 5 * sim.Microsecond,
		Live: func() bool {
			return !m.Promoted() && m.Lag() == 0 && b.ss.Outstanding() == 0
		},
	})
	if err != nil {
		panic(err)
	}
	sc.Start()

	sched := faults.CrashRestart(b.tb.MemNICs[b.rMem], cfg.BlipStart, cfg.BlipEnd)
	sched.Loss = faults.CrashPreserve
	sched.Install(b.tb.Engine)

	b.tb.RunFor(sim.Duration(cfg.Updates)*sim.Microsecond + 300*sim.Microsecond)
	sc.Stop()
	b.fo.Stop()
	b.sup.Stop()
	b.tb.Run()

	res.ScrubLost = m.Stats.ReplicaLost
	res.ScrubTicks = sc.Stats.Ticks
	res.ScrubSkipped = sc.Stats.Skipped
	res.ScrubChecked = sc.Stats.ChunksChecked
	res.ScrubDiverged = sc.Stats.Diverged
	res.ScrubRepairs = sc.Stats.Repairs
	res.ScrubBytes = sc.Stats.BytesRepaired
	res.ScrubSuspect = b.sup.Stats.SuspectEntries
	pw := b.tb.Region(b.dataP).Bytes()[:bedCounters*8]
	rw := b.tb.Region(b.dataR).Bytes()[:bedCounters*8]
	res.ScrubConverged = string(pw) == string(rw)
	res.PendingEvents += b.tb.PendingEvents()
}

// RunE13 executes the replication experiment.
func RunE13(cfg E13Config) (*Table, E13Result) {
	var res E13Result
	res.Sync = e13crash(cfg, gem.ReplicationSync, &res)
	res.Async = e13crash(cfg, gem.ReplicationAsync, &res)
	e13scrub(cfg, &res)
	res.Off = e13crash(cfg, gem.ReplicationOff, &res)

	res.SyncExact = res.Sync.Remote+res.Sync.Pending == uint64(res.Sync.Updates) &&
		res.Sync.ReplicaLost == 0 && res.Sync.Promotions == 1
	res.AsyncBounded = res.Async.Remote+res.Async.Pending+uint64(res.Async.LostDelta) >=
		uint64(res.Async.Updates)
	res.AsyncLagBounded = res.Async.LagMax <= int64(cfg.AsyncMaxLag)+1
	res.AsyncLossTyped = res.Async.TypedErrors == res.Async.ReplicaLost
	res.BaselineLossy = res.Off.Lost > 0

	t := &Table{
		ID:      "E13",
		Title:   "replicated remote memory: mirrored posting, anti-entropy scrub, replica promotion",
		Columns: []string{"arm", "invariant", "value", "detail"},
	}
	t.AddRow("sync", "byte-exact across wiped crash",
		fmt.Sprintf("%v", res.SyncExact),
		fmt.Sprintf("%d updates = %d replica + %d pending; %d mirrored, %d both-acked, %d replayed, %d wiped bytes",
			res.Sync.Updates, res.Sync.Remote, res.Sync.Pending,
			res.Sync.MirroredFAAs, res.Sync.BothAcked, res.Sync.Replayed, res.Sync.Wiped))
	t.AddRow("async", "loss bounded and typed",
		fmt.Sprintf("%v", res.AsyncBounded && res.AsyncLagBounded && res.AsyncLossTyped),
		fmt.Sprintf("%d updates <= %d replica + %d pending + %d lost-delta; lag max %d (bound %d), %d CQReplicaLost",
			res.Async.Updates, res.Async.Remote, res.Async.Pending,
			res.Async.LostDelta, res.Async.LagMax, cfg.AsyncMaxLag, res.Async.TypedErrors))
	t.AddRow("scrub", "divergence repaired",
		fmt.Sprintf("%v", res.ScrubConverged),
		fmt.Sprintf("%d declared lost in blip, %d chunks checked, %d diverged, %d repaired (%d bytes), sup suspect %d",
			res.ScrubLost, res.ScrubChecked, res.ScrubDiverged,
			res.ScrubRepairs, res.ScrubBytes, res.ScrubSuspect))
	t.AddRow("off", "wiped baseline loses updates",
		fmt.Sprintf("%v", res.BaselineLossy),
		fmt.Sprintf("%d of %d updates lost to the wipe (%d survived + %d pending, %d bytes wiped)",
			res.Off.Lost, res.Off.Updates, res.Off.Remote, res.Off.Pending, res.Off.Wiped))
	t.AddRow("placement", "replica anti-affine",
		fmt.Sprintf("%v", res.AntiAffine),
		fmt.Sprintf("primary on mem%d, replica on mem%d", res.PMem, res.RMem))
	t.AddNote("the primary restart wipes DRAM (CrashWipe default): sync survives byte-exact via the")
	t.AddNote("replica, async within its counted bound, the unreplicated baseline eats the loss")
	return t, res
}
