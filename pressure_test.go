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
	a, err := tb.NewAllocator(AllocatorConfig{PerServerBytes: 100 << 10}) // watermark 90 KB
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
	if a.Allocated(0) != 60<<10 || a.Allocated(1) != 70<<10 {
		t.Fatalf("occupancy %d/%d", a.Allocated(0), a.Allocated(1))
	}
}

// TestPressureMonitorTiers covers the tier state machine: raises at the
// watermarks, drops only after occupancy falls a hysteresis band below the
// raise threshold, and peak tracking.
func TestPressureMonitorTiers(t *testing.T) {
	m := NewPressureMonitor(PressureConfig{}) // 0.70 / 0.90, hysteresis 0.05
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
