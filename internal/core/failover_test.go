package core

import (
	"testing"

	"gem/internal/rnic"
	"gem/internal/sim"
	"gem/internal/switchsim"
)

// failoverBed: two memory servers, a state store on the primary, a
// failover group across both.
func failoverBed(t *testing.T) (*bed, *StateStore, *Failover) {
	t.Helper()
	b := newBedN(t, 1, 2, switchsim.Config{}, rnic.Config{})
	primary := b.establishOn(t, 0, 1<<16, rnic.PSNTolerant, false)
	standby := b.establishOn(t, 1, 1<<16, rnic.PSNTolerant, false)
	ss, err := NewStateStore(primary, StateStoreConfig{Counters: 64})
	if err != nil {
		t.Fatal(err)
	}
	fo, err := NewFailover([]*Channel{primary, standby}, ss)
	if err != nil {
		t.Fatal(err)
	}
	fo.OnFailover = func(_, newCh *Channel) { ss.RebindShard(0, newCh) }
	fo.RegisterWith(b.disp)
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if !b.disp.Dispatch(ctx) {
			ctx.Drop()
		}
	})
	fo.Start()
	// Stop heartbeating before the bed's cleanup drains the engine — an
	// active ticker would keep the event queue non-empty forever.
	t.Cleanup(fo.Stop)
	return b, ss, fo
}

func TestFailoverNeedsStandby(t *testing.T) {
	b := newBed(t, 1, switchsim.Config{}, rnic.Config{})
	ch := b.establish(t, 1024, rnic.PSNTolerant, false)
	if _, err := NewFailover([]*Channel{ch}, nil); err == nil {
		t.Fatal("single-channel failover accepted")
	}
}

func TestHeartbeatsFlowWhenHealthy(t *testing.T) {
	b, _, fo := failoverBed(t)
	b.net.Engine.RunFor(2 * sim.Millisecond)
	if fo.HeartbeatsSent < 15 {
		t.Fatalf("heartbeats sent = %d", fo.HeartbeatsSent)
	}
	if fo.HeartbeatsAcked < fo.HeartbeatsSent-2 {
		t.Fatalf("acked %d of %d heartbeats", fo.HeartbeatsAcked, fo.HeartbeatsSent)
	}
	if fo.Failovers != 0 {
		t.Fatal("spurious failover on a healthy server")
	}
}

func TestFailoverOnServerCrash(t *testing.T) {
	b, ss, fo := failoverBed(t)
	// Healthy phase: counts land on the primary.
	for i := 0; i < 50; i++ {
		ss.Update(3, 1)
	}
	b.net.Engine.RunFor(1 * sim.Millisecond)
	vPrimary, _ := b.memNICs[0].ReadCounter(fo.members[0].ch.RKey, fo.members[0].ch.Base+3*8)
	if vPrimary != 50 {
		t.Fatalf("primary counter = %d, want 50", vPrimary)
	}

	// Crash the primary.
	b.memNICs[0].Fail()
	b.net.Engine.RunFor(2 * sim.Millisecond)
	if fo.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", fo.Failovers)
	}
	if fo.Active() != fo.members[1].ch {
		t.Fatal("active channel not the standby")
	}
	// Detection within (threshold+1) heartbeat intervals.
	maxDetect := sim.Duration(missThreshold+1) * fo.HeartbeatInterval
	if fo.LastDetection > maxDetect {
		t.Fatalf("detection took %v, budget %v", fo.LastDetection, maxDetect)
	}

	// Post-failover: updates land on the standby.
	for i := 0; i < 30; i++ {
		ss.Update(3, 1)
	}
	b.net.Engine.RunFor(1 * sim.Millisecond)
	vStandby, _ := b.memNICs[1].ReadCounter(fo.members[1].ch.RKey, fo.members[1].ch.Base+3*8)
	if vStandby != 30 {
		t.Fatalf("standby counter = %d, want 30", vStandby)
	}
	if b.memHosts[0].CPUOps != 0 || b.memHosts[1].CPUOps != 0 {
		t.Fatal("failover burned server CPU")
	}
}

func TestFailoverPreservesPendingUpdates(t *testing.T) {
	b, ss, fo := failoverBed(t)
	b.memNICs[0].Fail()
	// Updates during the blackout accumulate locally (outstanding slots
	// reap via timeout) and must flush to the standby after failover.
	for i := 0; i < 100; i++ {
		ss.Update(7, 1)
	}
	b.net.Engine.RunFor(3 * sim.Millisecond)
	if fo.Failovers != 1 {
		t.Fatalf("failovers = %d", fo.Failovers)
	}
	ss.Update(7, 1) // nudge a flush after rebinding
	b.net.Engine.RunFor(2 * sim.Millisecond)
	vStandby, _ := b.memNICs[1].ReadCounter(fo.members[1].ch.RKey, fo.members[1].ch.Base+7*8)
	lostInFlight := uint64(101) - vStandby - ss.PendingTotal()
	// Only updates that were already in flight as FAAs at crash time may
	// be lost; everything accumulated locally must survive the failover.
	if lostInFlight > uint64(ss.cfg.MaxOutstanding)+uint64(ss.Stats.TimedOut) {
		t.Fatalf("lost %d updates across failover (standby=%d pending=%d)",
			lostInFlight, vStandby, ss.PendingTotal())
	}
	if vStandby == 0 {
		t.Fatal("nothing flushed to the standby")
	}
}

func TestFailoverExhaustsStandbys(t *testing.T) {
	b, _, fo := failoverBed(t)
	b.memNICs[0].Fail()
	b.memNICs[1].Fail()
	b.net.Engine.RunFor(5 * sim.Millisecond)
	if fo.Failovers != 1 {
		t.Fatalf("failovers = %d, want exactly 1 (no standby after the last)", fo.Failovers)
	}
	if len(fo.members)-1-fo.active != 0 {
		t.Fatalf("standbys = %d", len(fo.members)-1-fo.active)
	}
}

func TestFailedNICDropsAndRecovers(t *testing.T) {
	b := newBed(t, 1, switchsim.Config{}, rnic.Config{})
	ch := b.establish(t, 4096, rnic.PSNTolerant, false)
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) { ctx.Drop() })
	b.memNIC.Fail()
	ch.FetchAdd(0, 5)
	b.net.Engine.Run()
	if v, _ := b.memNIC.ReadCounter(ch.RKey, ch.Base); v != 0 {
		t.Fatal("crashed NIC executed an op")
	}
	if b.memNIC.Stats.DroppedWhileFailed == 0 {
		t.Fatal("drop not counted")
	}
	b.memNIC.Recover()
	ch.FetchAdd(0, 5)
	b.net.Engine.Run()
	if v, _ := b.memNIC.ReadCounter(ch.RKey, ch.Base); v != 5 {
		t.Fatalf("recovered NIC counter = %d, want 5", v)
	}
}

// reliableFailoverBed: two memory servers with strict AckReq channels, a
// retransmitter + state store on the primary, and a failover group over
// separate tolerant probe channels (an untracked lost probe on a strict QP
// would wedge its PSN stream).
func reliableFailoverBed(t *testing.T) (*bed, *StateStore, *Retransmitter, *Failover, [2]*Channel) {
	t.Helper()
	b := newBedN(t, 1, 2, switchsim.Config{}, rnic.Config{})
	probeP := b.establishOn(t, 0, 1<<16, rnic.PSNTolerant, false)
	probeS := b.establishOn(t, 1, 1<<16, rnic.PSNTolerant, false)
	dataP, err := b.ctrl.Establish(ChannelSpec{
		SwitchPort: 1, NIC: b.memNICs[0],
		RegionBase: 0x200000, RegionSize: 1 << 16,
		Mode: rnic.PSNStrict, AckReq: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dataS, err := b.ctrl.Establish(ChannelSpec{
		SwitchPort: 2, NIC: b.memNICs[1],
		RegionBase: 0x200000, RegionSize: 1 << 16,
		Mode: rnic.PSNStrict, AckReq: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRetransmitter(dataP, 8)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewStateStore(dataP, StateStoreConfig{Counters: 64})
	if err != nil {
		t.Fatal(err)
	}
	ss.SetShardRetransmitter(0, rt)
	fo, err := NewFailover([]*Channel{probeP, probeS}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dataOf := map[*Channel]*Channel{probeP: dataP, probeS: dataS}
	fo.OnFailover = func(_, newProbe *Channel) {
		data := dataOf[newProbe]
		rt.Retarget(data)
		ss.RebindShard(0, data)
	}
	fo.RegisterWith(b.disp)
	b.disp.Register(dataP, rt)
	b.disp.Register(dataS, rt)
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if !b.disp.Dispatch(ctx) {
			ctx.Drop()
		}
	})
	fo.Start()
	t.Cleanup(fo.Stop)
	return b, ss, rt, fo, [2]*Channel{dataP, dataS}
}

func TestFailoverRetargetsRetransmitWindow(t *testing.T) {
	// Failover racing in-flight retransmissions: the primary dies with the
	// retransmit window full, the retransmitter keeps resending into the
	// dead server until the heartbeat misses trigger failover, and Retarget
	// must move every tracked master to the standby's channel without
	// leaking or double-releasing the frames (the package TestMain audits
	// the pool for exactly that).
	b, ss, rt, fo, data := reliableFailoverBed(t)
	b.memNICs[0].Fail()
	const n = 20
	for i := 0; i < n; i++ {
		ss.Update(i%4, 1)
	}
	if rt.Unacked() != rt.Window {
		t.Fatalf("window not full at crash: %d of %d", rt.Unacked(), rt.Window)
	}
	b.net.Engine.RunFor(2 * sim.Millisecond)
	if fo.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", fo.Failovers)
	}
	if rt.Retargeted != int64(rt.Window) {
		t.Fatalf("retargeted %d of %d tracked requests", rt.Retargeted, rt.Window)
	}
	if rt.Unacked() != 0 {
		t.Fatalf("unacked = %d after failover drain", rt.Unacked())
	}
	// The dead primary executed nothing, so despite retargeting being
	// at-least-once in general, here every update lands exactly once.
	var total uint64
	for i := 0; i < 4; i++ {
		v, _ := b.memNICs[1].ReadCounter(data[1].RKey, data[1].Base+uint64(i*8))
		total += v
	}
	if total+ss.PendingTotal() != n {
		t.Fatalf("standby total %d + pending %d != %d issued", total, ss.PendingTotal(), n)
	}
}

func TestFailbackToRecoveredPrimary(t *testing.T) {
	// Regression: unanswered probes from the outage linger in the member's
	// outstanding set; liveness must judge only the newest probe, or a
	// recovered primary looks dead forever and failback never happens.
	b, ss, _, fo, data := reliableFailoverBed(t)
	b.memNICs[0].Fail()
	ss.Update(0, 1)
	b.net.Engine.RunFor(2 * sim.Millisecond)
	if fo.Failovers != 1 || fo.Failbacks != 0 {
		t.Fatalf("after crash: %d failovers, %d failbacks", fo.Failovers, fo.Failbacks)
	}
	b.memNICs[0].Recover()
	b.net.Engine.RunFor(2 * sim.Millisecond)
	if fo.Failbacks != 1 {
		t.Fatalf("failbacks = %d, want 1 (%d probes, %d acked)",
			fo.Failbacks, fo.FailbackProbes, fo.FailbackAcks)
	}
	if fo.Active() != fo.members[0].ch {
		t.Fatal("active member is not the recovered primary")
	}
	// Updates after failback land on the primary again.
	ss.Update(1, 1)
	b.net.Engine.RunFor(1 * sim.Millisecond)
	if v, _ := b.memNICs[0].ReadCounter(data[0].RKey, data[0].Base+8); v != 1 {
		t.Fatalf("post-failback update did not reach the primary (got %d)", v)
	}
}

func TestForceFailoverAfterExhaustedIsTypedNoop(t *testing.T) {
	// Regression: once every member is down, a forced failover must not
	// rebind onto the dead primary "because it is next in rotation". It is a
	// counted no-op with a typed CQFailoverExhausted completion — the
	// supervisor hears about the dead end instead of the store silently
	// posting into a black hole.
	b, ss, fo := failoverBed(t)
	cq := ss.Transport().Shard(0)
	fo.CQ = cq
	b.memNICs[0].Fail()
	b.memNICs[1].Fail()
	b.net.Engine.RunFor(5 * sim.Millisecond)
	if !fo.Exhausted {
		t.Fatalf("group not exhausted: %d failovers, %d standbys", fo.Failovers, len(fo.members)-1-fo.active)
	}
	// Entering Exhausted already emitted one typed completion.
	if got := cq.Stats.Errors.FailoverExhausted; got != 1 {
		t.Fatalf("exhaustion completions = %d, want 1", got)
	}
	active, failovers := fo.Active(), fo.Failovers
	for i := 1; i <= 2; i++ {
		if fo.ForceFailover() {
			t.Fatal("forced failover on an exhausted group reported a switch")
		}
		if fo.ForcedWhileExhausted != int64(i) {
			t.Fatalf("ForcedWhileExhausted = %d, want %d", fo.ForcedWhileExhausted, i)
		}
		if got := cq.Stats.Errors.FailoverExhausted; got != int64(1+i) {
			t.Fatalf("typed completions = %d, want %d", got, 1+i)
		}
	}
	if fo.Active() != active || fo.Failovers != failovers {
		t.Fatal("exhausted force-failover moved the active member")
	}
}
