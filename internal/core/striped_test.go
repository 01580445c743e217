package core

import (
	"testing"

	"gem/internal/netsim"
	"gem/internal/rnic"
	"gem/internal/sim"
	"gem/internal/switchsim"
	"gem/internal/wire"
)

// Striped-path coverage: the three primitives as StripedQP consumers —
// multi-server exactness, held batching, per-shard PSN wraparound,
// flush idempotence across rebind, and single-shard failover that leaves
// sibling shards undisturbed.

// stripedStateBed: like stateBed but with the counter space striped over
// nShards memory servers (plus spare extra servers for failover targets).
func stripedStateBed(t *testing.T, nShards, spare int, nicCfg rnic.Config, ssCfg StateStoreConfig) (*bed, *StateStore) {
	t.Helper()
	b := newBedN(t, 2, nShards+spare, switchsim.Config{}, nicCfg)
	ssCfg.fillDefaults()
	perShard := (ssCfg.Counters + nShards - 1) / nShards
	chans := make([]*Channel, nShards)
	for i := range chans {
		chans[i] = b.establishOn(t, i, perShard*8, rnic.PSNTolerant, false)
	}
	ss, err := NewStripedStateStore(chans, ssCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range chans {
		b.disp.Register(ch, ss)
	}
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if b.disp.Dispatch(ctx) {
			return
		}
		if ctx.Pkt == nil || !ctx.Pkt.HasIPv4 {
			ctx.Drop()
			return
		}
		ss.UpdateFlow(wire.FlowOf(ctx.Pkt))
		out := 1 - ctx.InPort
		if out >= 0 && out < 2 {
			ctx.Emit(out, ctx.Frame)
		} else {
			ctx.Drop()
		}
	})
	return b, ss
}

func TestStripedStateStoreCountsExactly(t *testing.T) {
	for _, shards := range []int{2, 4} {
		b, ss := stripedStateBed(t, shards, 0, rnic.Config{}, StateStoreConfig{Counters: 64})
		const n = 500
		for i := 0; i < n; i++ {
			b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[1], 256, uint16(i%8+1)))
		}
		b.net.Engine.Run()
		if got := remoteCounterSum(b, ss) + ss.PendingTotal(); got != n {
			t.Fatalf("shards=%d: remote+pending = %d, want %d (stats %+v)", shards, got, n, ss.Stats)
		}
		// Placement: counter i must live on server i mod N — nothing may
		// leak onto another shard's region.
		for i := 0; i < ss.cfg.Counters; i++ {
			ch, off := ss.CounterHome(i)
			if ch.PeerMAC != b.memNICs[i%shards].MAC {
				t.Fatalf("shards=%d: counter %d homed on the wrong server", shards, i)
			}
			if off != (i/shards)*8 {
				t.Fatalf("shards=%d: counter %d offset = %d, want %d", shards, i, off, (i/shards)*8)
			}
		}
		// Every shard carried traffic (8 flows spread over 64 counters).
		for i := 0; i < shards; i++ {
			if ss.Transport().Shard(i).Stats.FetchAdd.Posted == 0 {
				t.Fatalf("shards=%d: shard %d posted nothing", shards, i)
			}
		}
	}
}

func TestStripedStateStoreBatchMaxAgeReducesFrames(t *testing.T) {
	// Held batching with Batch=8: same-counter deltas coalesce in the
	// pending table before any frame is built, so frames-on-wire shrink by
	// the batch factor while the count stays exact.
	b, ss := stripedStateBed(t, 2, 0, rnic.Config{},
		StateStoreConfig{Counters: 8, Batch: 8, BatchMaxAge: 50 * sim.Microsecond})
	const n = 320
	for i := 0; i < n; i++ {
		b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[1], 1500, 3))
	}
	b.net.Engine.Run()
	if got := remoteCounterSum(b, ss) + ss.PendingTotal(); got != n {
		t.Fatalf("remote+pending = %d, want %d (stats %+v)", got, n, ss.Stats)
	}
	if ss.Stats.FAAIssued == 0 || ss.Stats.FAAIssued > n/8+2 {
		t.Fatalf("FAAs = %d for %d updates at batch 8 (held)", ss.Stats.FAAIssued, n)
	}
}

func TestStripedStateStoreAcrossPSNWrap(t *testing.T) {
	// Per-shard PSN spaces are independent: both must survive their own
	// 0xFFFFFF → 0 crossing while cumulative ACK retirement stays exact.
	b, ss := stripedStateBed(t, 2, 0, rnic.Config{}, StateStoreConfig{Counters: 64, MaxOutstanding: 8})
	for i := 0; i < len(ss.chans); i++ {
		ch, _ := ss.CounterHome(i)
		start := uint32(0xFFFFF4 + uint32(i)*5) // distinct wrap points
		ch.SetPSN(start)
		b.memNICs[i].LookupQP(ch.PeerQPN).SetExpectedPSN(start)
	}
	const n = 200
	for i := 0; i < n; i++ {
		b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[1], 256, uint16(i%8+1)))
	}
	b.net.Engine.Run()
	for i := 0; i < len(ss.chans); i++ {
		ch, _ := ss.CounterHome(i)
		if ch.PSN() >= 0xFFFFF4 {
			t.Fatalf("shard %d PSN stream never wrapped (PSN %#x)", i, ch.PSN())
		}
	}
	if got := remoteCounterSum(b, ss); got != n {
		t.Fatalf("remote counters = %d, want %d (stats %+v)", got, n, ss.Stats)
	}
	if p := ss.Transport().Pending(); p != 0 {
		t.Fatalf("transport still holds %d WQEs after drain", p)
	}
}

func TestStateStoreNoDoubleFlushAcrossRebind(t *testing.T) {
	// Regression (immediate path): a rebind arriving between a batch's
	// accumulate and its flush must post the parked delta exactly once to
	// the new server — not once per flush trigger.
	b := newBedN(t, 1, 2, switchsim.Config{}, rnic.Config{})
	primary := b.establishOn(t, 0, 64*8, rnic.PSNTolerant, false)
	standby := b.establishOn(t, 1, 64*8, rnic.PSNTolerant, false)
	ss, err := NewStateStore(primary, StateStoreConfig{
		Counters: 64, MaxOutstanding: 1, Batch: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.disp.Register(primary, ss)
	b.disp.Register(standby, ss)
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if !b.disp.Dispatch(ctx) {
			ctx.Drop()
		}
	})
	ss.Update(0, 1) // posts immediately, occupying the single slot
	ss.Update(1, 1)
	ss.Update(1, 1) // parks: delta 2 < Batch while a FAA is outstanding
	ss.RebindShard(0, standby)
	b.net.Engine.Run()
	v0, _ := b.memNICs[0].ReadCounter(primary.RKey, primary.Base)
	v1, _ := b.memNICs[1].ReadCounter(standby.RKey, standby.Base+8)
	if v0 != 1 {
		t.Fatalf("in-flight FAA on the old server = %d, want 1", v0)
	}
	if v1 != 2 {
		t.Fatalf("parked batch on the new server = %d, want exactly 2 (stats %+v)", v1, ss.Stats)
	}
	if ss.PendingTotal() != 0 {
		t.Fatalf("pending = %d after drain", ss.PendingTotal())
	}
}

func TestStateStoreIgnoresLateAckAcrossRebind(t *testing.T) {
	// Regression: a single-channel store rebinds while its old server still
	// owes an ACK. Both channels' PSN spaces start at 0, so that late ACK
	// names the same PSN as the FAA now in flight on the standby; it must not
	// retire that FAA or release its credit. Only the standby's own ACK may.
	b := newBedN(t, 1, 2, switchsim.Config{}, rnic.Config{})
	primary := b.establishOn(t, 0, 64*8, rnic.PSNTolerant, false)
	standby := b.establishOn(t, 1, 64*8, rnic.PSNTolerant, false)
	ss, err := NewStateStore(primary, StateStoreConfig{Counters: 64, MaxOutstanding: 1})
	if err != nil {
		t.Fatal(err)
	}
	b.disp.Register(primary, ss)
	b.disp.Register(standby, ss)
	lateAcks := 0
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		fromPrimary := ctx.Pkt != nil && ctx.Pkt.IsRoCE && ctx.Pkt.BTH.DestQP == primary.ID
		if !b.disp.Dispatch(ctx) {
			ctx.Drop()
			return
		}
		if fromPrimary {
			lateAcks++
			if n := ss.Transport().Pending(); n != 1 {
				t.Errorf("late primary ACK retired the standby's FAA: %d in flight, want 1", n)
			}
			if n := ss.ShardCredits(0).Outstanding(); n != 1 {
				t.Errorf("late primary ACK released the standby's credit: %d outstanding, want 1", n)
			}
		}
	})
	ss.Update(0, 1) // PSN 0 on the primary
	b.net.Engine.RunFor(200 * sim.Nanosecond)
	ss.RebindShard(0, standby)
	ss.Update(1, 1) // PSN 0 on the standby, answered after the primary's ACK
	b.net.Engine.Run()
	if lateAcks != 1 {
		t.Fatalf("primary ACKs after the rebind = %d, want 1", lateAcks)
	}
	if n := ss.Transport().Pending(); n != 0 {
		t.Fatalf("standby's own ACK did not retire its FAA: %d in flight", n)
	}
	v0, _ := b.memNICs[0].ReadCounter(primary.RKey, primary.Base)
	v1, _ := b.memNICs[1].ReadCounter(standby.RKey, standby.Base+8)
	if v0 != 1 || v1 != 1 {
		t.Fatalf("counters primary=%d standby=%d, want 1 and 1", v0, v1)
	}
}

func TestStateStoreBatchMaxAgeNoDoubleFlushAcrossRebind(t *testing.T) {
	// Regression (held batching): deltas held in the pending table when the
	// rebind lands must flush exactly once to the new server, no matter
	// which trigger fires first — the age flush armed before the rebind,
	// the Batch threshold after it, or the rebind's own flush.
	b := newBedN(t, 1, 2, switchsim.Config{}, rnic.Config{})
	primary := b.establishOn(t, 0, 64*8, rnic.PSNTolerant, false)
	standby := b.establishOn(t, 1, 64*8, rnic.PSNTolerant, false)
	ss, err := NewStateStore(primary, StateStoreConfig{
		Counters: 64, MaxOutstanding: 4, Batch: 4, BatchMaxAge: 50 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.disp.Register(primary, ss)
	b.disp.Register(standby, ss)
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if !b.disp.Dispatch(ctx) {
			ctx.Drop()
		}
	})
	ss.Update(1, 1)
	ss.Update(1, 1)
	ss.Update(1, 1) // delta 3 < Batch: held in the pending table, age flush armed
	ss.RebindShard(0, standby)
	ss.Update(1, 1)    // delta 4 = Batch: posts once, to the new endpoint
	b.net.Engine.Run() // the pre-rebind age flush also fires in here
	v0, _ := b.memNICs[0].ReadCounter(primary.RKey, primary.Base+8)
	v1, _ := b.memNICs[1].ReadCounter(standby.RKey, standby.Base+8)
	if v0 != 0 {
		t.Fatalf("old server got %d, want 0 (nothing was in flight at rebind)", v0)
	}
	if v1 != 4 {
		t.Fatalf("new server = %d, want exactly 4 (double-flush?) stats %+v", v1, ss.Stats)
	}
	if ss.Stats.FAAIssued != 1 {
		t.Fatalf("FAAs = %d, want 1 (one coalesced batch)", ss.Stats.FAAIssued)
	}
}

func TestStateStoreReconcileAcrossShardRebind(t *testing.T) {
	// Reconcile racing a shard rebind: a degraded backlog parked on shard 1
	// must flush exactly once to the rebind target — not once at the rebind
	// and again at the Reconcile — and the abort of shard 1's in-flight FAAs
	// must return every credit to the old channel's window (no leak). The
	// sibling shard is never disturbed.
	b, ss := stripedStateBed(t, 2, 1, rnic.Config{}, StateStoreConfig{
		Counters: 8, MaxOutstanding: 2,
	})
	spare := b.establishOn(t, 2, 4*8, rnic.PSNTolerant, false)
	b.disp.Register(spare, ss)

	// Phase 1 (t=0): two FAAs in flight on each shard's window, two more
	// odd-counter updates parked in the pending table.
	ss.Update(0, 1)
	ss.Update(2, 1)
	ss.Update(1, 1)
	ss.Update(3, 1)
	ss.Update(5, 1) // window full: accumulates
	ss.Update(7, 1)
	oldCredits := ss.ShardCredits(1)
	if oldCredits.Outstanding() != 2 {
		t.Fatalf("setup: shard 1 outstanding = %d, want 2", oldCredits.Outstanding())
	}

	// Phase 2: degrade (a supervisor would do this on typed errors), grow
	// the backlog, then rebind shard 1 while the window is still in flight.
	ss.SetDegraded(true)
	for _, idx := range []int{1, 3, 5, 7} {
		ss.Update(idx, 1)
	}
	ss.RebindShard(1, spare)
	if oldCredits.Outstanding() != 0 {
		t.Fatalf("abort leaked credits: %d still outstanding on the old window",
			oldCredits.Outstanding())
	}
	if ss.Stats.FAAIssued != 4 {
		t.Fatalf("rebind flushed a degraded backlog: %d FAAs, want 4", ss.Stats.FAAIssued)
	}

	ss.Reconcile()
	b.net.Engine.Run()

	// The two aborted in-flight FAAs still execute on the (alive) old server;
	// their late ACKs route to a QPN the store no longer owns and are
	// ignored. The backlog of 6 lands on the spare exactly once.
	sumOn := func(nic *rnic.NIC, ch *Channel) uint64 {
		var s uint64
		for off := 0; off < 4*8; off += 8 {
			v, _ := nic.ReadCounter(ch.RKey, ch.Base+uint64(off))
			s += v
		}
		return s
	}
	ch0, _ := ss.CounterHome(0)
	if got := sumOn(b.memNICs[0], ch0); got != 2 {
		t.Fatalf("sibling shard disturbed: %d, want 2", got)
	}
	if got := sumOn(b.memNICs[2], spare); got != 6 {
		t.Fatalf("rebind target = %d, want exactly 6 (double flush?) stats %+v", got, ss.Stats)
	}
	if ss.PendingTotal() != 0 {
		t.Fatalf("pending = %d after reconcile drain", ss.PendingTotal())
	}
	if ss.Stats.DegradedEntries != 1 || ss.Stats.DegradedExits != 1 || ss.Stats.Reconciles != 1 {
		t.Fatalf("degraded accounting off: %+v", ss.Stats)
	}
	for si := 0; si < 2; si++ {
		if n := ss.ShardCredits(si).Outstanding(); n != 0 {
			t.Fatalf("shard %d credits leaked: %d outstanding after drain", si, n)
		}
	}
}

// stripedLossyBed wires 1 host and nMem memory servers whose links all drop
// frames with prob loss.
func stripedLossyBed(t *testing.T, nMem int, loss float64) *bed {
	t.Helper()
	n := netsim.New(11)
	sw := switchsim.New("tor", n.Engine, switchsim.Config{})
	h := netsim.NewHost("h", 1)
	hp, _ := n.Connect(sw, h, netsim.Link40G())
	ports := []*netsim.Port{hp}
	b := &bed{net: n, sw: sw, hosts: []*netsim.Host{h}}
	for i := 0; i < nMem; i++ {
		memHost := netsim.NewHost("memsrv", uint32(200+i))
		memNIC := rnic.New("memsrv-nic", memHost, rnic.Config{})
		lossy := netsim.Link40G()
		lossy.LossRate = loss
		sp, np := n.Connect(sw, memNIC, lossy)
		memNIC.Bind(n.Engine, np)
		ports = append(ports, sp)
		b.memNICs = append(b.memNICs, memNIC)
		b.memHosts = append(b.memHosts, memHost)
	}
	sw.Bind(ports...)
	b.memNIC, b.memHost, b.memPort = b.memNICs[0], b.memHosts[0], 1
	b.ctrl = NewController(sw)
	b.disp = NewDispatcher()
	t.Cleanup(func() { drainUnlessFailed(t, n.Engine) })
	return b
}

func TestStripedStateStoreShardFailoverUnderLoss(t *testing.T) {
	// Single-shard failover on the reliable (go-back-N) path: shard 0's
	// server is dead from the start, its retransmitter resends into the
	// void until the shard rebinds to a standby; shard 1 keeps running
	// go-back-N recovery over a lossy link the whole time. Shard 1's exact
	// count proves the failover never disturbed it; shard 0's proves the
	// parked window and pending deltas survived the rebind exactly once
	// (the dead primary executed nothing).
	b := stripedLossyBed(t, 3, 0.02)
	strict := func(port int, nic *rnic.NIC) *Channel {
		ch, err := b.ctrl.Establish(ChannelSpec{
			SwitchPort: port, NIC: nic,
			RegionBase: 0x1000, RegionSize: 4096,
			Mode: rnic.PSNStrict, AckReq: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	ch0 := strict(1, b.memNICs[0])
	ch1 := strict(2, b.memNICs[1])
	standby := strict(3, b.memNICs[2])
	ss, err := NewStripedStateStore([]*Channel{ch0, ch1}, StateStoreConfig{Counters: 8})
	if err != nil {
		t.Fatal(err)
	}
	rt0, err := NewRetransmitter(ch0, 8)
	if err != nil {
		t.Fatal(err)
	}
	rt1, err := NewRetransmitter(ch1, 8)
	if err != nil {
		t.Fatal(err)
	}
	rt0.Timeout, rt1.Timeout = 20*sim.Microsecond, 20*sim.Microsecond
	ss.SetShardRetransmitter(0, rt0)
	ss.SetShardRetransmitter(1, rt1)
	b.disp.Register(ch0, rt0)
	b.disp.Register(ch1, rt1)
	b.disp.Register(standby, rt0)
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if !b.disp.Dispatch(ctx) {
			ctx.Drop()
		}
	})
	b.memNICs[0].Fail() // shard 0's server is dead before the first FAA
	const n = 80        // 40 updates per shard (idx parity = shard)
	for i := 0; i < n; i++ {
		ss.Update(i%8, 1)
	}
	b.net.Engine.RunFor(500 * sim.Microsecond)
	rt0.Retarget(standby)
	ss.RebindShard(0, standby)
	ss.Update(0, 1) // nudge the flush loop post-rebind
	b.net.Engine.RunUntil(drainDeadline)

	var shard0, shard1 uint64
	for i := 0; i < 8; i++ {
		ch, off := ss.CounterHome(i)
		nic := b.memNICs[2]
		if i%2 == 1 {
			nic = b.memNICs[1]
		}
		v, _ := nic.ReadCounter(ch.RKey, ch.Base+uint64(off))
		if i%2 == 0 {
			shard0 += v
		} else {
			shard1 += v
		}
	}
	if shard1 != n/2 {
		t.Fatalf("shard 1 disturbed by sibling failover: %d, want %d (rt1 rexmit %d)",
			shard1, n/2, rt1.Retransmits)
	}
	if shard0+ss.PendingTotal() != n/2+1 {
		t.Fatalf("shard 0 after failover: standby %d + pending %d, want %d",
			shard0, ss.PendingTotal(), n/2+1)
	}
	if rt0.Retransmits == 0 {
		t.Fatal("shard 0 never retransmitted into the dead server")
	}
	if rt1.Unacked() != 0 || rt0.Unacked() != 0 {
		t.Fatalf("unacked after drain: rt0=%d rt1=%d", rt0.Unacked(), rt1.Unacked())
	}
}

func TestStripedLookupTableRoutesByHomeShard(t *testing.T) {
	// Entries stripe over two servers (idx mod N picks the region); a miss
	// must fetch from — and deposit through — its home shard only, and the
	// applied action proves which region answered.
	b := newBedN(t, 2, 2, switchsim.Config{}, rnic.Config{MTU: 4096})
	cfg := LookupConfig{Entries: 64}
	cfg.fillDefaults()
	perShard := (cfg.Entries + 1) / 2 * cfg.EntrySize()
	chans := []*Channel{
		b.establishOn(t, 0, perShard, rnic.PSNTolerant, false),
		b.establishOn(t, 1, perShard, rnic.PSNTolerant, false),
	}
	lt, err := NewStripedLookupTable(chans, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lt.DefaultOutPort = 1
	for _, ch := range chans {
		b.disp.Register(ch, lt)
	}
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if b.disp.Dispatch(ctx) {
			return
		}
		if ctx.Pkt == nil || !ctx.Pkt.HasIPv4 {
			ctx.Drop()
			return
		}
		lt.Lookup(ctx, ctx.Frame, ctx.Pkt)
	})
	// Shard-distinct actions: entries on shard s carry DSCP 10+s.
	regions := []*rnic.Region{
		b.memNICs[0].LookupRegion(chans[0].RKey),
		b.memNICs[1].LookupRegion(chans[1].RKey),
	}
	for i := 0; i < cfg.Entries; i++ { // entry i is slot i div N of region i mod N
		if err := PopulateLookupEntry(regions[i%2], cfg, i/2, SetDSCPAction(uint8(10+i%2))); err != nil {
			t.Fatal(err)
		}
	}
	got := recvDSCP(b, 1)
	var want []uint8
	for p := uint16(1); p <= 16; p++ {
		f := dataFrame(b.hosts[0], b.hosts[1], 256, p)
		var pkt wire.Packet
		if err := pkt.DecodeFromBytes(f); err != nil {
			t.Fatal(err)
		}
		idx := wire.FlowOf(&pkt).Index(cfg.Entries)
		want = append(want, uint8(10+idx%2))
		b.net.Ports(b.hosts[0])[0].Send(f)
		b.net.Engine.Run() // serialize flows so delivery order matches send order
	}
	if len(*got) != len(want) {
		t.Fatalf("delivered %d/%d", len(*got), len(want))
	}
	for i := range want {
		if (*got)[i] != want[i] {
			t.Fatalf("flow %d: DSCP %d, want %d (wrong home shard answered)", i, (*got)[i], want[i])
		}
	}
	// Both shards must have actually served lookups.
	for i := 0; i < 2; i++ {
		if lt.Transport().Shard(i).Stats.Read.Posted == 0 {
			t.Fatalf("shard %d served no lookups", i)
		}
	}
}
