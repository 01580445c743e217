package harness

import (
	"gem"
	"gem/internal/faults"
	"gem/internal/flowgen"
	"gem/internal/netsim"
	"gem/internal/rnic"
	"gem/internal/sim"
	"gem/internal/switchsim"
	"gem/internal/wire"
)

// The testbeds several experiments share, each built by one function.
// Channel IDs, SRAM names and the engine's causal ranks follow construction
// order, so the order inside a builder is part of every golden it feeds.
//
// Every pipeline below is installed through Testbed.SetPipeline, which hands
// RDMA responses to the dispatcher before the pipeline runs: a pipeline only
// ever sees the traffic no primitive claimed.

// bedCounters is the counter count of the E9, E12 and E13 state stores; at 8
// bytes each they are E13's scrub window.
const bedCounters = 8

// remoteSum reads counters [0, n) of ss back from server memory and sums
// them. A nil ch reads each counter at its home shard; a non-nil ch reads the
// same offsets on ch, a standby or replica region laid out like the store's.
func remoteSum(tb *gem.Testbed, ss *gem.StateStore, ch *gem.Channel, n int) uint64 {
	var sum uint64
	for i := 0; i < n; i++ {
		home, off := ss.CounterHome(i)
		if ch != nil {
			home = ch
		}
		v, _ := tb.ReadRemoteCounter(home, off)
		sum += v
	}
	return sum
}

// memLinkBytes is the traffic so far, both ways and framing included, on the
// switch's link to memory server 0.
func memLinkBytes(tb *gem.Testbed) int64 {
	p := tb.Switch.Port(tb.SwitchPortOfMem(0))
	return p.TxMeter.Bytes + p.RxMeter.Bytes
}

// tickUpdates adds 1 to counter i%bedCounters of ss once per microsecond, n
// times.
func tickUpdates(tb *gem.Testbed, ss *gem.StateStore, n int) {
	issued := 0
	tb.Engine.Ticker(1*sim.Microsecond, func() bool {
		ss.Update(issued%bedCounters, 1)
		issued++
		return issued < n
	})
}

// flowFrame materializes flow i as a size-byte frame from host 0 to host 1.
func flowFrame(tb *gem.Testbed, i, size int) []byte {
	sp, dp := flowgen.FlowID(i)
	return wire.BuildDataFrame(tb.Hosts[0].MAC, tb.Hosts[1].MAC,
		tb.Hosts[0].IP, tb.Hosts[1].IP, sp, dp, size, nil)
}

// closedLoop sends packets frames from host 0, each one when host 1 has
// received the previous one, so every one-way latency handed to observe is
// clean. frame(i) builds the i-th.
func closedLoop(tb *gem.Testbed, packets int, frame func(i int) []byte, observe func(sim.Duration)) {
	var sentAt sim.Time
	i := 0
	send := func() {
		sentAt = tb.Now()
		tb.SendFrame(0, frame(i))
	}
	tb.Hosts[1].Handler = func(*netsim.Port, []byte) {
		observe(tb.Now().Sub(sentAt))
		i++
		if i < packets {
			send()
		}
	}
	send()
	tb.Run()
}

// lookupBed builds the populated-table bed E2, E5 and E8b share: two hosts,
// one memory server with a 4 KB MTU, and a remote lookup table whose entry i
// holds action(i). Every IPv4 packet goes through the table, which emits on
// port 1 unless the caller replaces Apply.
func lookupBed(seed int64, cfg gem.LookupConfig, action func(i int) gem.LookupAction) (*gem.Testbed, *gem.LookupTable) {
	tb, err := gem.New(gem.Options{
		Seed: seed, Hosts: 2, MemoryServers: 1,
		NIC: rnic.Config{MTU: 4096},
	})
	if err != nil {
		panic(err)
	}
	ch, err := tb.Establish(0, gem.ChannelSpec{RegionSize: cfg.Entries * cfg.EntrySize()})
	if err != nil {
		panic(err)
	}
	lt, err := gem.NewLookupTable(ch, cfg)
	if err != nil {
		panic(err)
	}
	lt.DefaultOutPort = 1
	region := tb.Region(ch)
	for i := 0; i < cfg.Entries; i++ {
		if err := gem.PopulateLookupEntry(region, cfg, i, action(i)); err != nil {
			panic(err)
		}
	}
	tb.Dispatcher.Register(ch, lt)
	tb.SetPipeline(func(ctx *gem.Context) {
		if ctx.Pkt == nil || !ctx.Pkt.HasIPv4 {
			ctx.Drop()
			return
		}
		lt.Lookup(ctx, ctx.Frame, ctx.Pkt)
	})
	return tb, lt
}

// reliableBed builds the reliable-counter bed E9a, E9d and E8c share: one
// host, one memory server behind a strict, ACK-requesting channel, a memory
// link that drops each frame with probability loss, a retransmitter with the
// given window registered for the channel's responses, and a pipeline that
// drops everything else.
func reliableBed(seed int64, loss float64, window int) (*gem.Testbed, *gem.Channel, *gem.Retransmitter) {
	tb, err := gem.New(gem.Options{Seed: seed, Hosts: 1, MemoryServers: 1, MemLinkLossRate: loss})
	if err != nil {
		panic(err)
	}
	ch, err := tb.Establish(0, gem.ChannelSpec{
		RegionSize: 4096, Mode: gem.PSNStrict, AckReq: true,
	})
	if err != nil {
		panic(err)
	}
	rt, err := gem.NewRetransmitter(ch, window)
	if err != nil {
		panic(err)
	}
	tb.Dispatcher.Register(ch, rt)
	tb.SetPipeline(func(ctx *gem.Context) { ctx.Drop() })
	return tb, ch, rt
}

// pumpFAA adds 1 to the counter at offset 0 of ch n times through rt, filling
// rt's window once per tick, drains the testbed, and returns the counter.
func pumpFAA(tb *gem.Testbed, ch *gem.Channel, rt *gem.Retransmitter, n int, tick sim.Duration) uint64 {
	issued := 0
	tb.Engine.Ticker(tick, func() bool {
		for issued < n && rt.CanSend() {
			rt.FetchAdd(0, 1)
			issued++
		}
		return issued < n || rt.Unacked() > 0
	})
	tb.Run()
	v, _ := tb.ReadRemoteCounter(ch, 0)
	return v
}

// failoverBed is the primary + standby bed E9b and E12a share. Probe
// channels (tolerant) are separate from the strict data channels — an
// untracked lost probe on a strict QP would wedge its PSN stream, which is
// exactly why real deployments split control and data QPs. The
// retransmitter's retry budget escalates to ForceFailover; the recovered
// primary is failed back to after answering probes.
type failoverBed struct {
	tb           *gem.Testbed
	dataP, dataS *gem.Channel
	rt           *gem.Retransmitter
	ss           *gem.StateStore
	fo           *gem.Failover
	sup          *gem.Supervisor // nil unless governed; the store is its one target
}

// runFailoverBed builds the bed and runs it: the primary crashes at crashAt
// and restarts at restartAt with its DRAM intact (a process restart — the
// failed-back primary must keep its pre-crash counters for the no-loss
// checks; E13 owns the wiped-DRAM story), the store takes one update per
// microsecond, n in all, and the bed runs until tail past the restart before
// it stops probing and drains. A non-nil supCfg puts a supervisor over the
// store, with the store's shard QP as the failover's completion queue.
func runFailoverBed(seed int64, supCfg *gem.SupervisorConfig, crashAt, restartAt sim.Time, n int, tail sim.Duration) *failoverBed {
	tb, err := gem.New(gem.Options{Seed: seed, Hosts: 1, MemoryServers: 2})
	if err != nil {
		panic(err)
	}
	mkpair := func(mem int) (probe, data *gem.Channel) {
		probe, err := tb.Establish(mem, gem.ChannelSpec{
			RegionBase: 0x10000000, RegionSize: 64, Mode: gem.PSNTolerant,
		})
		if err != nil {
			panic(err)
		}
		data, err = tb.Establish(mem, gem.ChannelSpec{
			RegionBase: 0x20000000, RegionSize: 4096, Mode: gem.PSNStrict, AckReq: true,
		})
		if err != nil {
			panic(err)
		}
		return probe, data
	}
	probeP, dataP := mkpair(0)
	probeS, dataS := mkpair(1)
	dataOf := map[*gem.Channel]*gem.Channel{probeP: dataP, probeS: dataS}

	rt, err := gem.NewRetransmitter(dataP, 8)
	if err != nil {
		panic(err)
	}
	rt.EnableAdaptiveRTO()
	rt.MaxRetries = 4
	ss, err := gem.NewStateStore(dataP, gem.StateStoreConfig{Counters: bedCounters})
	if err != nil {
		panic(err)
	}
	ss.SetShardRetransmitter(0, rt) // wires rt's typed errors to the store's CQ
	fo, err := gem.NewFailover([]*gem.Channel{probeP, probeS}, nil)
	if err != nil {
		panic(err)
	}
	if supCfg != nil {
		fo.CQ = ss.Transport().Shard(0)
	}
	fo.OnFailover = func(_, newProbe *gem.Channel) {
		data := dataOf[newProbe]
		rt.Retarget(data)
		ss.RebindShard(0, data)
	}
	rt.OnExhausted = func() { fo.ForceFailover() }
	fo.RegisterWith(tb.Dispatcher)
	tb.Dispatcher.Register(dataP, rt)
	tb.Dispatcher.Register(dataS, rt)
	tb.SetPipeline(func(ctx *gem.Context) { ctx.Drop() })

	b := &failoverBed{tb: tb, dataP: dataP, dataS: dataS, rt: rt, ss: ss, fo: fo}
	if supCfg != nil {
		b.sup = gem.NewSupervisor(tb.Engine, *supCfg)
		b.sup.Govern(gem.Govern("store", ss, fo))
	}
	fo.Start()
	if b.sup != nil {
		b.sup.Start()
	}
	sched := faults.CrashRestart(tb.MemNICs[0], crashAt, restartAt)
	sched.Loss = faults.CrashPreserve
	sched.Install(tb.Engine)
	tickUpdates(tb, ss, n)

	tb.RunFor(sim.Duration(restartAt) + tail)
	fo.Stop()
	if b.sup != nil {
		b.sup.Stop()
	}
	tb.Run()
	return b
}

// stormBed is the lookup-miss + counter storm E10 and E12 share: every
// packet updates a state store and misses a lookup table in deposit mode,
// both behind credit windows small enough to bind.
type stormBed struct {
	tb       *gem.Testbed
	lt       *gem.LookupTable
	ss       *gem.StateStore
	highSent int64 // high-priority frames start has sent
}

const (
	stormEntries  = 256
	stormFrameLen = 192
	stormCounters = 64
)

// newStormBed builds the storm bed; unlimited is the UnlimitedWindow
// ablation, whose credit windows observe but never refuse.
func newStormBed(seed int64, unlimited bool) *stormBed {
	tb, err := gem.New(gem.Options{Seed: seed, Hosts: 2, MemoryServers: 1})
	if err != nil {
		panic(err)
	}
	ltCfg := gem.LookupConfig{
		Entries: stormEntries, MaxPktBytes: 256,
		MaxOutstandingMisses: 2,
		UnlimitedWindow:      unlimited,
	}
	chLT, err := tb.Establish(0, gem.ChannelSpec{
		RegionBase: 0x10000000, RegionSize: stormEntries * ltCfg.EntrySize(),
	})
	if err != nil {
		panic(err)
	}
	chSS, err := tb.Establish(0, gem.ChannelSpec{RegionBase: 0x20000000, RegionSize: 4096})
	if err != nil {
		panic(err)
	}
	lt, err := gem.NewLookupTable(chLT, ltCfg)
	if err != nil {
		panic(err)
	}
	lt.DefaultOutPort = tb.SwitchPortOfHost(1)
	// The CPU slow path resolves high-priority misses the window refuses;
	// zeroed remote entries already decode as ActNop (forward).
	lt.SlowPath = func(wire.FlowKey) (gem.LookupAction, bool) {
		return gem.LookupAction{}, true
	}
	ss, err := gem.NewStateStore(chSS, gem.StateStoreConfig{
		Counters: stormCounters, MaxOutstanding: 4,
		PendingSlots: 32, ShedPendingSlots: 8,
		UnlimitedWindow: unlimited,
	})
	if err != nil {
		panic(err)
	}
	tb.Dispatcher.Register(chLT, lt)
	tb.Dispatcher.Register(chSS, ss)
	tb.SetPipeline(func(ctx *gem.Context) {
		if ctx.Pkt == nil || !ctx.Pkt.HasIPv4 {
			ctx.Drop()
			return
		}
		ss.UpdatePrio(int(ctx.Pkt.UDP.SrcPort)%stormCounters, 1, ctx.Priority)
		lt.LookupPrio(ctx, ctx.Frame, ctx.Pkt, ctx.Priority)
	})
	return &stormBed{tb: tb, lt: lt, ss: ss}
}

// start sends packets frames from host 0 to host 1, one per interval; every
// 4th is marked DSCP EF (high priority) and counts in highSent.
func (b *stormBed) start(interval sim.Duration, packets int) {
	highPorts, lowPorts := stormPorts(b.tb, 4, 12)
	sent, lowIdx := 0, 0
	b.tb.Engine.Ticker(interval, func() bool {
		var frame []byte
		if sent%4 == 0 {
			frame = b.tb.DataFrame(0, 1, stormFrameLen, highPorts[(sent/4)%len(highPorts)], 9999)
			wire.SetDSCP(frame, 46)
			b.highSent++
		} else {
			frame = b.tb.DataFrame(0, 1, stormFrameLen, lowPorts[lowIdx%len(lowPorts)], 9999)
			lowIdx++
		}
		b.tb.SendFrame(0, frame)
		sent++
		return sent < packets
	})
}

// stormPorts picks UDP source ports whose lookup-table hash indexes are
// pairwise distinct (so concurrent deposits never race on an entry) and
// whose counter index (port % 64) falls in the high band [0,8) or the low
// band [8,64).
func stormPorts(tb *gem.Testbed, nHigh, nLow int) (high, low []uint16) {
	used := make(map[int]bool)
	for port := uint16(1000); len(high) < nHigh || len(low) < nLow; port++ {
		wantHigh := int(port)%stormCounters < 8
		if wantHigh && len(high) >= nHigh || !wantHigh && len(low) >= nLow {
			continue
		}
		frame := tb.DataFrame(0, 1, stormFrameLen, port, 9999)
		var p wire.Packet
		err := p.DecodeFromBytes(frame)
		idx := wire.FlowOf(&p).Index(stormEntries)
		wire.DefaultPool.Put(frame) // probe only; never enters the fabric
		if err != nil {
			continue
		}
		if used[idx] {
			continue
		}
		used[idx] = true
		if wantHigh {
			high = append(high, port)
		} else {
			low = append(low, port)
		}
	}
	return high, low
}

// flowCountBed is the §7 ablation bed E8a, E8d and E8e share: one memory
// server, a flowCounters-counter state store counting every IPv4 packet by
// flow, and a two-flow CBR source on host 0.
type flowCountBed struct {
	tb  *gem.Testbed
	ch  *gem.Channel
	ss  *gem.StateStore
	gen *flowgen.CBR
}

const flowCounters = 64

// newFlowCountBed builds the bed and starts its source at gbps. With toMem
// the counted traffic goes to memory server 0's host, sharing the memory
// link with the FAAs that count it; otherwise it goes to host 1.
func newFlowCountBed(sw switchsim.Config, toMem bool, batch uint64, frameLen int, gbps float64) *flowCountBed {
	hosts := 2
	if toMem {
		hosts = 1
	}
	tb, err := gem.New(gem.Options{Seed: 8, Hosts: hosts, MemoryServers: 1, Switch: sw})
	if err != nil {
		panic(err)
	}
	ch, err := tb.Establish(0, gem.ChannelSpec{RegionSize: 1 << 16})
	if err != nil {
		panic(err)
	}
	ss, err := gem.NewStateStore(ch, gem.StateStoreConfig{Counters: flowCounters, Batch: batch})
	if err != nil {
		panic(err)
	}
	tb.Dispatcher.Register(ch, ss)
	var out int
	var dst *netsim.Host
	if toMem {
		out, dst = tb.SwitchPortOfMem(0), tb.MemHosts[0]
	} else {
		out, dst = 1, tb.Hosts[1]
	}
	tb.SetPipeline(func(ctx *gem.Context) {
		if ctx.Pkt == nil || !ctx.Pkt.HasIPv4 {
			ctx.Drop()
			return
		}
		ss.UpdateFlow(gem.FlowOf(ctx.Pkt))
		ctx.Emit(out, ctx.Frame)
	})
	gen := &flowgen.CBR{
		Src: tb.Hosts[0], Dst: dst, Port: tb.HostPort(0),
		FrameLen: frameLen, RateBps: gbps * 1e9, FlowCount: 2,
	}
	gen.Start(tb.Engine, 0)
	return &flowCountBed{tb: tb, ch: ch, ss: ss, gen: gen}
}

// spillBed is the §5 packet-buffer microbenchmark E1 and E11b share: a
// sender, a destination, and a P4 program that stores every incoming packet
// to a remote ring striped over the memory servers and (when loading runs)
// loads it back and forwards it to host 1.
type spillBed struct {
	tb  *gem.Testbed
	pb  *gem.PacketBuffer
	gen *flowgen.CBR
}

// newSpillBed builds the bed with one ringBytes channel per memory server of
// opts and an unstarted source of frameLen frames at rateGbps on host 0.
func newSpillBed(opts gem.Options, ringBytes, frameLen int, rateGbps float64) *spillBed {
	tb, err := gem.New(opts)
	if err != nil {
		panic(err)
	}
	chans := make([]*gem.Channel, opts.MemoryServers)
	for i := range chans {
		chans[i], err = tb.Establish(i, gem.ChannelSpec{RegionSize: ringBytes})
		if err != nil {
			panic(err)
		}
	}
	// One full-sized Ethernet frame per entry, as in the prototype.
	pb, err := gem.NewPacketBuffer(chans, tb.SwitchPortOfHost(1), gem.PacketBufferConfig{
		EntrySize:      frameLen + 4,
		HighWaterBytes: 1, LowWaterBytes: 256 << 10, // watermark 1: store everything, load eagerly
		MaxOutstandingReads: 32,
	})
	if err != nil {
		panic(err)
	}
	pb.RegisterWith(tb.Dispatcher)
	tb.Switch.Hooks = pb
	tb.SetPipeline(func(ctx *gem.Context) {
		if ctx.Pkt == nil || ctx.Pkt.IsRoCE {
			ctx.Drop()
			return
		}
		pb.Admit(ctx, ctx.Frame)
	})
	gen := &flowgen.CBR{
		Src: tb.Hosts[0], Dst: tb.Hosts[1], Port: tb.HostPort(0),
		FrameLen: frameLen, RateBps: rateGbps * 1e9,
	}
	return &spillBed{tb: tb, pb: pb, gen: gen}
}

// drainGbps stores frames with loading paused, then resumes loading and
// returns the pure load+forward goodput, measured to the last delivery (the
// engine keeps idle read-timeout timers alive past it). A lost frame in
// either phase returns 0, poisoning the result visibly.
func (b *spillBed) drainGbps(frames, frameLen int) float64 {
	b.pb.PauseLoading()
	b.gen.Start(b.tb.Engine, int64(frames))
	b.tb.Run()
	if b.pb.Stats.Stored != int64(frames) {
		return 0
	}
	start := b.tb.Now()
	var lastDelivery sim.Time
	b.tb.Hosts[1].Handler = func(*netsim.Port, []byte) { lastDelivery = b.tb.Now() }
	b.pb.ResumeLoading()
	b.tb.Run()
	if b.tb.Hosts[1].Received != int64(frames) {
		return 0
	}
	elapsed := lastDelivery.Sub(start)
	return float64(frames) * float64(frameLen) * 8 / elapsed.Seconds() / 1e9
}
