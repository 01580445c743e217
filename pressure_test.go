package gem

import "testing"

// TestAllocatorSteersAndRefuses covers the remote-memory admission path:
// placements go to the least-loaded eligible server (counted as steering
// when that diverges from first-fit), and a request no server can hold
// below the watermark is refused with the refusal counted.
func TestAllocatorSteersAndRefuses(t *testing.T) {
	tb, err := New(Options{Hosts: 1, MemoryServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := tb.NewAllocator(100 << 10) // watermark 90 KB
	if err != nil {
		t.Fatal(err)
	}
	// 60 KB → server 0 (first fit). 60 KB → server 1 (0 is at 60/90).
	// 20 KB → server 1? No: both eligible (60+20, 60+20 ≤ 90); tie keeps
	// the first-fit choice, so no steer. Fill 0 to 80 first.
	if _, srv, err := a.Allocate(60<<10, ChannelSpec{}); err != nil || srv != 0 {
		t.Fatalf("first placement: srv=%d err=%v", srv, err)
	}
	if _, srv, err := a.Allocate(20<<10, ChannelSpec{}); err != nil || srv != 1 {
		t.Fatalf("second placement should steer to empty server 1: srv=%d err=%v", srv, err)
	}
	if a.Steered != 1 {
		t.Fatalf("Steered = %d, want 1", a.Steered)
	}
	// Server 0 at 60 KB, server 1 at 20 KB. 50 KB fits only on server 1
	// (60+50 > 90): first-fit already lands there, no steer.
	if _, srv, err := a.Allocate(50<<10, ChannelSpec{}); err != nil || srv != 1 {
		t.Fatalf("third placement: srv=%d err=%v", srv, err)
	}
	if a.Steered != 1 {
		t.Fatalf("Steered moved to %d on a first-fit placement", a.Steered)
	}
	// 40 KB fits nowhere (100, 110 > 90): refused, counted.
	if _, _, err := a.Allocate(40<<10, ChannelSpec{}); err == nil {
		t.Fatal("over-watermark placement accepted")
	}
	if a.Refusals != 1 {
		t.Fatalf("Refusals = %d, want 1", a.Refusals)
	}
	if a.allocated[0] != 60<<10 || a.allocated[1] != 70<<10 {
		t.Fatalf("occupancy %d/%d", a.allocated[0], a.allocated[1])
	}
}

// TestAllocateReplicatedAntiAffinity covers replicated placement: the
// replica never shares its primary's server, the pair counters move as the
// least-loaded policy says, and every refusal leaves the occupancy as it was.
func TestAllocateReplicatedAntiAffinity(t *testing.T) {
	tb, err := New(Options{Hosts: 1, MemoryServers: 3})
	if err != nil {
		t.Fatal(err)
	}
	a, err := tb.NewAllocator(100 << 10) // watermark 90 KB
	if err != nil {
		t.Fatal(err)
	}
	// All empty: the primary takes server 0 (first fit), the replica the
	// least-loaded other server, 1. Then 0 and 1 hold 30 KB each, so the
	// next primary steers to empty server 2 and its replica goes to 0.
	want := [][2]int{{0, 1}, {2, 0}}
	for i, w := range want {
		p, r, pMem, rMem, err := a.AllocateReplicated(30<<10, ChannelSpec{})
		if err != nil || p == nil || r == nil {
			t.Fatalf("pair %d: err=%v", i, err)
		}
		if pMem != w[0] || rMem != w[1] {
			t.Fatalf("pair %d placed on %d/%d, want %d/%d", i, pMem, rMem, w[0], w[1])
		}
	}
	if a.Replicated != 2 || a.Steered != 1 || a.Refusals != 0 {
		t.Fatalf("Replicated/Steered/Refusals = %d/%d/%d, want 2/1/0",
			a.Replicated, a.Steered, a.Refusals)
	}
	// Keep placing until the servers fill: no pair is ever co-located.
	for {
		_, _, pMem, rMem, err := a.AllocateReplicated(10<<10, ChannelSpec{})
		if err != nil {
			break
		}
		if pMem == rMem {
			t.Fatalf("replica co-located with its primary on server %d", pMem)
		}
	}
	if a.Refusals != 1 {
		t.Fatalf("Refusals = %d, want 1 once full", a.Refusals)
	}
}

// TestAllocateReplicatedRefusals covers the two ways a pair is refused: a
// single memory server, and room for the primary only. Neither leaves a
// half-placed pair behind.
func TestAllocateReplicatedRefusals(t *testing.T) {
	one, err := New(Options{Hosts: 1, MemoryServers: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := one.NewAllocator(100 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := a.AllocateReplicated(10<<10, ChannelSpec{}); err == nil {
		t.Fatal("replicated placement accepted with one memory server")
	}
	if a.Refusals != 1 || a.Replicated != 0 || a.allocated[0] != 0 {
		t.Fatalf("one server: Refusals=%d Replicated=%d Allocated=%d, want 1/0/0",
			a.Refusals, a.Replicated, a.allocated[0])
	}

	tb, err := New(Options{Hosts: 1, MemoryServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err = tb.NewAllocator(100 << 10) // watermark 90 KB
	if err != nil {
		t.Fatal(err)
	}
	if _, srv, err := a.Allocate(80<<10, ChannelSpec{}); err != nil || srv != 0 {
		t.Fatalf("filler placement: srv=%d err=%v", srv, err)
	}
	// 50 KB fits on server 1 only: the primary would go there, and no other
	// server can take the replica.
	if _, _, _, _, err := a.AllocateReplicated(50<<10, ChannelSpec{}); err == nil {
		t.Fatal("pair accepted with room for the primary only")
	}
	if a.allocated[0] != 80<<10 || a.allocated[1] != 0 {
		t.Fatalf("half-placed pair: occupancy %d/%d, want %d/0",
			a.allocated[0], a.allocated[1], 80<<10)
	}
	if a.Refusals != 1 || a.Replicated != 0 || a.Steered != 0 {
		t.Fatalf("Refusals/Replicated/Steered = %d/%d/%d, want 1/0/0",
			a.Refusals, a.Replicated, a.Steered)
	}
}

// TestPressureMonitorTiers covers the tier state machine: raises at the
// watermarks, drops only after occupancy falls a hysteresis band below the
// raise threshold, and peak tracking.
func TestPressureMonitorTiers(t *testing.T) {
	m := NewPressureMonitor() // 0.70 / 0.90, hysteresis 0.05
	var occ int64
	m.AddServer(0, 1000)
	m.AddGauge(0, func() int64 { return occ })

	steps := []struct {
		occ  int64
		want PressureTier
	}{
		{0, PressureNormal},
		{699, PressureNormal},
		{700, PressureElevated},
		{660, PressureElevated}, // above 700-50: hysteresis holds
		{649, PressureNormal},   // below 650: drop
		{900, PressureCritical}, // straight through elevated
		{860, PressureCritical}, // above 900-50: holds
		{849, PressureElevated}, // drops one tier
		{600, PressureNormal},   // continues down on the next eval
	}
	for i, s := range steps {
		occ = s.occ
		if got := m.Tier(0); got != s.want {
			t.Fatalf("step %d (occ %d): tier %v, want %v", i, s.occ, got, s.want)
		}
	}
	// Raises count tiers crossed (normal→critical is 2); drops step one
	// tier per eval. 1+2 raises, 1+1+1 drops.
	if m.Stats.TierRaises != 3 || m.Stats.TierDrops != 3 {
		t.Fatalf("raises/drops = %d/%d, want 3/3", m.Stats.TierRaises, m.Stats.TierDrops)
	}
	if got := m.PeakFrac(0); got != 0.9 {
		t.Fatalf("PeakFrac = %v, want 0.9", got)
	}
	if m.GlobalTier() != PressureNormal {
		t.Fatalf("GlobalTier = %v after drain", m.GlobalTier())
	}
}

// TestStatsLeavesPressureTiers checks that reading tb.Stats() is only an
// observation: it reports the worst tier as last evaluated and moves no
// tier or counter, so an AdmitGate keyed on Tier sees the same tiers
// whether or not anyone took a snapshot.
func TestStatsLeavesPressureTiers(t *testing.T) {
	tb, err := New(Options{Hosts: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := NewPressureMonitor()
	var occ int64
	m.AddServer(0, 1000)
	m.AddGauge(0, func() int64 { return occ })
	tb.SetPressureMonitor(m)

	occ = 950
	if snap := tb.Stats(); snap.PressureGlobalTier != int(PressureNormal) || snap.PressureTierRaises != 0 {
		t.Fatalf("snapshot before any evaluation: tier %d, raises %d; want 0/0",
			snap.PressureGlobalTier, snap.PressureTierRaises)
	}
	occ = 870
	if got := m.Tier(0); got != PressureElevated || m.Stats.TierRaises != 1 {
		t.Fatalf("Tier(0) at 870/1000 after a snapshot: %v with %d raises, want elevated with 1",
			got, m.Stats.TierRaises)
	}
	if got := m.PeakFrac(0); got != 0.87 {
		t.Fatalf("PeakFrac = %v, want 0.87 (the snapshot must not evaluate)", got)
	}
	if snap := tb.Stats(); snap.PressureGlobalTier != int(PressureElevated) || snap.PressureTierRaises != 1 {
		t.Fatalf("snapshot after evaluation: tier %d, raises %d; want %d/1",
			snap.PressureGlobalTier, snap.PressureTierRaises, PressureElevated)
	}
}

// TestStatsSnapshotWalk checks that tb.Stats() reaches counters through
// wrapped handler chains (Retransmitter around a StateStore) and channel
// accounting, and that Add merges two snapshots (sums plus maxes).
func TestStatsSnapshotWalk(t *testing.T) {
	tb, err := New(Options{Hosts: 1, MemoryServers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := tb.Establish(0, ChannelSpec{RegionSize: 4096, AckReq: true, Mode: PSNStrict})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRetransmitter(ch, 8)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewStateStore(ch, StateStoreConfig{Counters: 8, MaxOutstanding: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt.EnableAdaptiveRTO() // RTT samples only accrue in adaptive mode
	ss.SetShardRetransmitter(0, rt)
	tb.Dispatcher.Register(ch, rt)
	tb.SetPipeline(func(ctx *Context) { ctx.Drop() })
	for i := 0; i < 6; i++ {
		ss.Update(i, 1)
	}
	tb.Run()
	snap := tb.Stats()
	if snap.CreditAcquired == 0 || snap.CreditReleased == 0 {
		t.Fatalf("credit accounting missing from snapshot: %+v", snap)
	}
	if snap.CreditPeak == 0 || snap.CreditPeak > 2 {
		t.Fatalf("CreditPeak = %d, want in (0,2]", snap.CreditPeak)
	}
	if snap.RTTSamples == 0 {
		t.Fatalf("walk did not reach the wrapped Retransmitter: %+v", snap)
	}

	merged := snap.Add(StatsSnapshot{CreditAcquired: 1, CreditPeak: 100, PressureGlobalTier: 2})
	if merged.CreditAcquired != snap.CreditAcquired+1 {
		t.Fatalf("Add did not sum CreditAcquired")
	}
	if merged.CreditPeak != 100 || merged.PressureGlobalTier != 2 {
		t.Fatalf("Add did not max peak/tier fields: %+v", merged)
	}
}
