package main

import (
	"fmt"

	"gem"
	"gem/internal/faults"
	"gem/internal/flowgen"
	"gem/internal/netsim"
	"gem/internal/rnic"
	"gem/internal/sim"
	"gem/internal/switchsim"
	"gem/internal/wire"
)

// workload is one set of inputs: a builder that wires a testbed from the
// seed, and why the benchmark has it. Names are permanent.
type workload struct {
	name string
	why  string
	// frame is the wire frame kind the layer drivers exercise for it.
	frame frameKind
	// dataLen is the size of its data frames (0 when it sends none); rdma
	// is the remote operations it issues. Both size the layer drivers.
	dataLen int
	rdma    rdmaShape
	// bypassesMemory marks the workload on which every rnic, verbs and core
	// count must be zero.
	bypassesMemory bool
	build          func(e *env) (*bed, error)
}

var workloads = []*workload{
	{
		name: "fwd_64", frame: frameUDP64, dataLen: 64, bypassesMemory: true, build: buildFwd64,
		why: "bare forwarding at the smallest packet, no memory servers: only sim, netsim, switchsim and wire decode run",
	},
	{
		name: "incast_spill", frame: frameWrite1500, dataLen: 1500, build: buildIncastSpill,
		rdma: rdmaShape{writeLen: 1502, readLen: 1504},
		why:  "8:1 incast of 1500 B frames spilled to 8 remote rings: bulk WRITE+READ, deep queues, 512 MB of set-up",
	},
	{
		name: "faa_telemetry", frame: frameFetchAdd, dataLen: 64, build: buildFAATelemetry,
		rdma: rdmaShape{atomic: true},
		why:  "a 38 Gbps 64 B flow counted per packet with Fetch-and-Add: the small-packet atomic fast path, negligible set-up",
	},
	{
		name: "lookup_zipf", frame: frameReadResp1K, dataLen: 256, build: buildLookupZipf,
		rdma: rdmaShape{writeLen: 258, readLen: 1024},
		why:  "Zipf lookups over 200 K remote entries behind a 16 K cache, 16 in flight: READ path, 200 MB populated at set-up",
	},
	{
		name: "reliable_mirror", frame: frameFetchAdd, build: buildReliableMirror,
		rdma: rdmaShape{atomic: true},
		why:  "striped, mirrored counters over bursty-loss links: the retransmit, NAK and replication paths off the fast path",
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// buildFwd64: 4 senders × 4 receivers, 64 B frames at 38 Gbps per sender, a
// MAC-match pipeline and no memory servers. The seed draws each frame's
// receiver and the gaps between frames, so egress queueing — and with it
// simulated latency — depends on the inputs.
func buildFwd64(e *env) (*bed, error) {
	const senders, receivers, frameLen = 4, 4, 64
	perSender := e.count(180_000, 64)

	rng := e.rng("fwd_64")
	dst := make([][]uint8, senders)
	for s := range dst {
		dst[s] = make([]uint8, perSender)
		for i := range dst[s] {
			dst[s][i] = uint8(rng.Intn(receivers))
		}
	}

	tb, err := e.newTestbed(gem.Options{Hosts: senders + receivers})
	if err != nil {
		return nil, err
	}
	b := &bed{tb: tb, lat: make([]int32, 0, senders*perSender)}
	l2, err := switchsim.NewL2Pipeline(tb.Switch, senders+receivers)
	if err != nil {
		return nil, err
	}
	for i, h := range tb.Hosts {
		if err := l2.Learn(h.MAC, tb.SwitchPortOfHost(i)); err != nil {
			return nil, err
		}
	}
	e.install(tb, l2.Ingress)

	order := newFlowOrder(senders * receivers)
	var misrouted int64
	for r := 0; r < receivers; r++ {
		r := r
		tb.Hosts[senders+r].Handler = func(_ *netsim.Port, frame []byte) {
			e.tr.begin(spanGen)
			flow, seq := b.arrived(frame)
			if int(flow)%receivers != r {
				misrouted++
			}
			order.arrive(flow, seq)
			e.tr.end()
		}
	}
	b.start = func() {
		for s := 0; s < senders; s++ {
			s := s
			var stamp [stampLen]byte
			var seq [receivers]uint32
			startPacer(b, e.tr, tb.HostPort(s), frameLen, 38e9, e.rng(fmt.Sprint("pace", s)), perSender,
				func(i int, now sim.Time) []byte {
					r := int(dst[s][i])
					putStamp(stamp[:], now, uint32(s*receivers+r), seq[r])
					seq[r]++
					return udpFrame(tb, s, senders+r, frameLen, uint16(1000+s), 9999, stamp[:])
				})
		}
	}
	b.verify = func() (int64, int64) {
		offered := int64(senders * perSender)
		return offered, offered - order.inOrder + misrouted
	}
	return b, nil
}

// buildIncastSpill: the §2.1 incast. 8 senders burst 1500 B frames at line
// rate toward one 40 G port; a PacketBuffer striped over 8 servers takes the
// overflow, PFC keeps the memory links lossless. The seed draws each frame's
// flow (8 per sender) and the gaps between frames.
func buildIncastSpill(e *env) (*bed, error) {
	const senders, servers, frameLen, flowsPer = 8, 8, 1500, 8
	perSender := e.count(100<<20/frameLen/senders, 64)
	regionBytes := e.count(64<<20, 1<<20)

	rng := e.rng("incast_spill")
	flowOf := make([][]uint8, senders)
	for s := range flowOf {
		flowOf[s] = make([]uint8, perSender)
		for i := range flowOf[s] {
			flowOf[s][i] = uint8(rng.Intn(flowsPer))
		}
	}

	tb, err := e.newTestbed(gem.Options{
		Hosts: senders + 1, MemoryServers: servers,
		NIC: rnic.Config{MTU: 4096, EnablePFC: true},
	})
	if err != nil {
		return nil, err
	}
	b := &bed{tb: tb, lat: make([]int32, 0, senders*perSender)}
	recv := senders
	var chans []*gem.Channel
	for i := 0; i < servers; i++ {
		ch, err := e.establish(b, i, gem.ChannelSpec{RegionSize: regionBytes})
		if err != nil {
			return nil, err
		}
		chans = append(chans, ch)
	}
	pb, err := gem.NewPacketBuffer(chans, tb.SwitchPortOfHost(recv), gem.PacketBufferConfig{
		EntrySize:           frameLen + 4,
		HighWaterBytes:      1 << 20,
		LowWaterBytes:       512 << 10,
		MaxOutstandingReads: 64,
	})
	if err != nil {
		return nil, err
	}
	b.pb = pb
	pb.RegisterWith(tb.Dispatcher)
	e.installHooks(tb, pb)
	recvMAC := tb.Hosts[recv].MAC
	e.install(tb, func(ctx *gem.Context) {
		if ctx.Pkt == nil || ctx.Pkt.Eth.Dst != recvMAC {
			ctx.Drop()
			return
		}
		e.tr.begin(spanDatapath)
		pb.Admit(ctx, ctx.Frame)
		e.tr.end()
	})

	order := newFlowOrder(senders * flowsPer)
	tb.Hosts[recv].Handler = func(_ *netsim.Port, frame []byte) {
		e.tr.begin(spanGen)
		order.arrive(b.arrived(frame))
		e.tr.end()
	}
	b.start = func() {
		for s := 0; s < senders; s++ {
			s := s
			var stamp [stampLen]byte
			var seq [flowsPer]uint32
			startPacer(b, e.tr, tb.HostPort(s), frameLen, 40e9, e.rng(fmt.Sprint("pace", s)), perSender,
				func(i int, now sim.Time) []byte {
					f := int(flowOf[s][i])
					putStamp(stamp[:], now, uint32(s*flowsPer+f), seq[f])
					seq[f]++
					return udpFrame(tb, s, recv, frameLen, uint16(1000+f), 9999, stamp[:])
				})
		}
	}
	b.verify = func() (int64, int64) {
		offered := int64(senders * perSender)
		return offered, offered - order.inOrder
	}
	return b, nil
}

// buildFAATelemetry: Figure 3b. One 38 Gbps stream of 64 B frames over 256
// UDP flows; every packet is one StateStore.UpdateFlow on a single server,
// so Fetch-and-Adds run at the RNIC's atomic ceiling and the rest coalesce
// on the switch. The seed draws each frame's flow and the gaps between frames.
func buildFAATelemetry(e *env) (*bed, error) {
	const frameLen, flows, counters = 64, 256, 4096
	frames := e.count(865_000, 64) // 16 ms of simulated time at 38 Gbps

	rng := e.rng("faa_telemetry")
	flowOf := make([]uint8, frames)
	for i := range flowOf {
		flowOf[i] = uint8(rng.Intn(flows))
	}

	tb, err := e.newTestbed(gem.Options{Hosts: 2, MemoryServers: 1})
	if err != nil {
		return nil, err
	}
	b := &bed{tb: tb, lat: make([]int32, 0, frames)}
	ch, err := e.establish(b, 0, gem.ChannelSpec{RegionSize: 1 << 20})
	if err != nil {
		return nil, err
	}
	ss, err := gem.NewStateStore(ch, gem.StateStoreConfig{Counters: counters})
	if err != nil {
		return nil, err
	}
	b.ss = ss
	tb.Dispatcher.Register(ch, ss)
	sinkMAC := tb.Hosts[1].MAC
	e.install(tb, func(ctx *gem.Context) {
		if ctx.Pkt == nil || !ctx.Pkt.HasIPv4 || ctx.Pkt.Eth.Dst != sinkMAC {
			ctx.Drop()
			return
		}
		e.tr.begin(spanDatapath)
		ss.UpdateFlow(gem.FlowOf(ctx.Pkt))
		e.tr.end()
		ctx.Emit(1, ctx.Frame)
	})

	var delivered int64
	tb.Hosts[1].Handler = func(_ *netsim.Port, frame []byte) {
		e.tr.begin(spanGen)
		b.arrived(frame)
		delivered++
		e.tr.end()
	}
	b.start = func() {
		var stamp [stampLen]byte
		startPacer(b, e.tr, tb.HostPort(0), frameLen, 38e9, e.rng("pace"), frames,
			func(i int, now sim.Time) []byte {
				f := flowOf[i]
				putStamp(stamp[:], now, uint32(f), uint32(i))
				return udpFrame(tb, 0, 1, frameLen, uint16(1000)+uint16(f), 9999, stamp[:])
			})
	}
	b.verify = func() (int64, int64) {
		// Ground truth per counter, from the inputs alone.
		want := make([]uint64, counters)
		key := wire.FlowKey{SrcIP: tb.Hosts[0].IP, DstIP: tb.Hosts[1].IP, Protocol: wire.ProtoUDP, DstPort: 9999}
		for _, f := range flowOf {
			key.SrcPort = uint16(1000) + uint16(f)
			want[key.Index(counters)]++
		}
		missing := counterShortfall(tb, ss, want)
		return int64(frames), max(missing, int64(frames)-delivered)
	}
	return b, nil
}

// counterShortfall sums, over all counters, how far remote + pending falls
// short of (or overshoots) the expected value.
func counterShortfall(tb *gem.Testbed, ss *gem.StateStore, want []uint64) int64 {
	var off int64
	for i, w := range want {
		ch, o := ss.CounterHome(i)
		v, err := tb.ReadRemoteCounter(ch, o)
		if err != nil {
			off += int64(w)
			continue
		}
		got := v + ss.Pending(i)
		if got > w {
			off += int64(got - w)
		} else {
			off += int64(w - got)
		}
	}
	return off
}

// buildLookupZipf: §2.2 bare-metal translation. 256 B packets whose flows
// follow Zipf(1.1) over 200 K mappings populated in remote DRAM, a 16 K-entry
// SRAM cache in front, 16 closed-loop clients: each sends its next packet a
// short think time after its previous one is delivered. Misses deposit the packet with a
// WRITE and fetch action and packet back with a READ. The seed draws the
// flow sequence and the think times.
func buildLookupZipf(e *env) (*bed, error) {
	const frameLen, clients = 256, 16
	packets := e.count(500_000, 64)
	lcfg := gem.LookupConfig{
		Entries:      e.count(200_000, 256),
		MaxPktBytes:  1014, // 1 KiB entries
		CacheEntries: e.count(16_384, 32),
		// Never refuses with 16 clients; it makes the transport track each
		// READ to its completion instead of firing and forgetting.
		MaxOutstandingMisses: 2 * clients,
	}

	zipf := flowgen.NewZipf(e.seed, lcfg.Entries, 1.1)
	flowOf := make([]int, packets)
	for i := range flowOf {
		flowOf[i] = zipf.Next()
	}

	tb, err := e.newTestbed(gem.Options{Hosts: 2, MemoryServers: 1, NIC: rnic.Config{MTU: 4096}})
	if err != nil {
		return nil, err
	}
	b := &bed{tb: tb, lat: make([]int32, 0, packets)}
	// Each packet's table entry: the hash the switch will compute for it.
	entryOf := make([]uint32, packets)
	key := wire.FlowKey{SrcIP: tb.Hosts[0].IP, DstIP: tb.Hosts[1].IP, Protocol: wire.ProtoUDP}
	for i, f := range flowOf {
		key.SrcPort, key.DstPort = flowgen.FlowID(f)
		entryOf[i] = uint32(key.Index(lcfg.Entries))
	}
	ch, err := e.establish(b, 0, gem.ChannelSpec{RegionSize: lcfg.Entries * lcfg.EntrySize()})
	if err != nil {
		return nil, err
	}
	lt, err := gem.NewLookupTable(ch, lcfg)
	if err != nil {
		return nil, err
	}
	b.lt = lt
	lt.DefaultOutPort = 1
	physOf := func(idx int) wire.IP4 { return wire.IP4FromUint32(0x0B000000 | uint32(idx)) }
	err = e.phase(spanPopulate, &e.populateS, func() error {
		region := tb.Region(ch)
		for i := 0; i < lcfg.Entries; i++ {
			if err := gem.PopulateLookupEntry(region, lcfg, i, gem.SetDstIPAction(physOf(i))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tb.Dispatcher.Register(ch, lt)
	e.install(tb, func(ctx *gem.Context) {
		if ctx.Pkt == nil || !ctx.Pkt.HasIPv4 {
			ctx.Drop()
			return
		}
		e.tr.begin(spanDatapath)
		lt.Lookup(ctx, ctx.Frame, ctx.Pkt)
		e.tr.end()
	})

	// Closed loop: `clients` senders, each with one packet outstanding; a
	// table entry belongs to one client (entry mod clients), so an entry never
	// has two packets in flight. (Deposit mode bounces the packet through its
	// entry's slot; two packets of one entry in flight can overwrite each other
	// there, which loses one and duplicates the other. A benchmark workload
	// must not fail, so the generator stays out of that regime; see README.md.)
	queue := make([][]int32, clients)
	for i, en := range entryOf {
		queue[en%clients] = append(queue[en%clients], int32(i))
	}
	var (
		stamp [stampLen]byte
		seen  = make([]bool, packets)
		ok    int64
	)
	sendNext := func(c uint32) {
		if len(queue[c]) == 0 {
			return
		}
		i := queue[c][0]
		queue[c] = queue[c][1:]
		putStamp(stamp[:], tb.Now(), uint32(flowOf[i]), uint32(i))
		sp, dp := flowgen.FlowID(flowOf[i])
		e.tr.begin(spanSend)
		tb.HostPort(0).Send(udpFrame(tb, 0, 1, frameLen, sp, dp, stamp[:]))
		e.tr.end()
		b.genFrames++
	}
	// A client thinks for a seeded, exponentially distributed time before its
	// next packet; without it the 16 loops fall into lockstep and never queue.
	const meanThinkNs = 250
	think := e.rng("think")
	wake := make([]func(), clients)
	for c := range wake {
		c := uint32(c)
		wake[c] = func() {
			e.tr.begin(spanGen)
			sendNext(c)
			e.tr.end()
		}
	}
	var pkt wire.Packet
	tb.Hosts[1].Handler = func(_ *netsim.Port, frame []byte) {
		e.tr.begin(spanGen)
		_, seq := b.arrived(frame)
		// An operation succeeds when its packet arrives once, with the
		// destination rewritten to the address its entry was populated with.
		if int(seq) < packets && !seen[seq] {
			seen[seq] = true
			if pkt.DecodeFromBytes(frame) == nil && pkt.HasIPv4 && pkt.IP.Dst == physOf(int(entryOf[seq])) {
				ok++
			}
			c := entryOf[seq] % clients
			tb.Engine.Schedule(sim.Duration(think.ExpFloat64()*meanThinkNs), wake[c])
		}
		e.tr.end()
	}
	b.start = func() {
		for c := range wake {
			tb.Engine.Schedule(sim.Duration(think.ExpFloat64()*meanThinkNs), wake[c])
		}
	}
	b.verify = func() (int64, int64) { return int64(packets), int64(packets) - ok }
	return b, nil
}

// buildReliableMirror: the recovery path. Counters striped over two
// strict-PSN, ACK-requesting channels, each behind an adaptive-RTO
// retransmitter and each mirrored synchronously to its own replica server;
// Gilbert–Elliott bursty loss on both directions of the two primary links.
// Updates arrive at 2 M/s. The seed draws the counter each update hits and,
// through the testbed seed, the loss pattern.
func buildReliableMirror(e *env) (*bed, error) {
	const shards, counters = 2, 4096
	updates := e.count(200_000, 256)

	rng := e.rng("reliable_mirror")
	idxOf := make([]uint16, updates)
	for i := range idxOf {
		idxOf[i] = uint16(rng.Intn(counters))
	}

	tb, err := e.newTestbed(gem.Options{Hosts: 1, MemoryServers: 2 * shards})
	if err != nil {
		return nil, err
	}
	b := &bed{tb: tb}
	var primaries, replicas []*gem.Channel
	for i := 0; i < shards; i++ {
		p, err := e.establish(b, i, gem.ChannelSpec{RegionSize: counters / shards * 8, Mode: gem.PSNStrict, AckReq: true})
		if err != nil {
			return nil, err
		}
		r, err := e.establish(b, shards+i, gem.ChannelSpec{RegionSize: counters / shards * 8})
		if err != nil {
			return nil, err
		}
		primaries, replicas = append(primaries, p), append(replicas, r)
	}
	ss, err := gem.NewStripedStateStore(primaries, gem.StateStoreConfig{Counters: counters})
	if err != nil {
		return nil, err
	}
	b.ss = ss
	for i := 0; i < shards; i++ {
		rt, err := gem.NewRetransmitter(primaries[i], 8)
		if err != nil {
			return nil, err
		}
		rt.EnableAdaptiveRTO()
		ss.SetShardRetransmitter(i, rt)
		rt.Inner = ss
		tb.Dispatcher.Register(primaries[i], rt)
		tb.Dispatcher.Register(replicas[i], ss)
		if _, err := ss.Replicate(i, replicas[i], gem.MirrorConfig{Mode: gem.ReplicationSync}); err != nil {
			return nil, err
		}
		lossy := func() *faults.LinkFaults {
			return &faults.LinkFaults{Loss: &faults.GilbertElliott{PGoodToBad: 0.01, PBadToGood: 0.2, LossBad: 0.5}}
		}
		tb.MemNICs[i].Port().Peer().SetFaultInjector(lossy()) // switch → server
		tb.MemNICs[i].Port().SetFaultInjector(lossy())        // server → switch
	}
	e.install(tb, func(ctx *gem.Context) { ctx.Drop() })

	b.latHist = func() gem.LatencyHist { return ss.Transport().Stats().Latency }
	b.start = func() {
		issued := 0
		tb.Engine.Ticker(500*sim.Nanosecond, func() bool {
			e.tr.begin(spanGen)
			e.tr.begin(spanDatapath)
			ss.Update(int(idxOf[issued]), 1)
			e.tr.end()
			issued++
			e.tr.end()
			return issued < updates
		})
	}
	b.verify = func() (int64, int64) {
		want := make([]uint64, counters)
		for _, idx := range idxOf {
			want[idx]++
		}
		failed := counterShortfall(tb, ss, want)
		// Primary and replica must hold the same bytes.
		for i := 0; i < counters; i++ {
			pch, off := ss.CounterHome(i)
			pv, perr := tb.ReadRemoteCounter(pch, off)
			rv, rerr := tb.ReadRemoteCounter(ss.ReplicaChannel(i%shards), off)
			if perr != nil || rerr != nil {
				failed++
			} else if pv != rv {
				failed += int64(max(pv, rv) - min(pv, rv))
			}
		}
		if ss.Stats.DroppedUpdates != 0 {
			failed += ss.Stats.DroppedUpdates
		}
		return int64(updates), failed
	}
	return b, nil
}
