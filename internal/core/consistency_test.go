package core

import (
	"testing"

	"gem/internal/core/verbs"
	"gem/internal/rnic"
	"gem/internal/sim"
	"gem/internal/switchsim"
	"gem/internal/wire"
)

// Consistency-spectrum coverage: the SetDegraded/Reconcile exit-edge
// accounting, BoundedStaleness and Eventual mode semantics on the state
// store, the supervisor's health ladder driven by a synthetic target, and a
// supervisor governing a packet buffer through a server crash.

func TestReconcileDegradedExitSingleEdge(t *testing.T) {
	// Regression: one degraded interval must count exactly one DegradedExit
	// no matter how recovery is spelled — Reconcile alone, SetDegraded(false)
	// then Reconcile, or Reconcile twice. The old Reconcile bumped its own
	// exit counter unconditionally, double-counting when paired with the
	// SetDegraded(false) edge.
	cases := []struct {
		name       string
		recover    func(ss *StateStore)
		reconciles int64
	}{
		{"reconcile", func(ss *StateStore) { ss.Reconcile() }, 1},
		{"setdegraded-then-reconcile", func(ss *StateStore) {
			ss.SetDegraded(false)
			ss.Reconcile()
		}, 0}, // Reconcile finds the store already un-degraded: flush only
		{"reconcile-twice", func(ss *StateStore) {
			ss.Reconcile()
			ss.Reconcile()
		}, 1},
	}
	for _, tc := range cases {
		b, ss := stateBed(t, rnic.Config{}, StateStoreConfig{Counters: 8})
		ss.SetDegraded(true)
		for i := 0; i < 10; i++ {
			ss.Update(i%8, 1)
		}
		if ss.Stats.DegradedUpdates != 10 {
			t.Fatalf("%s: degraded updates = %d, want 10", tc.name, ss.Stats.DegradedUpdates)
		}
		tc.recover(ss)
		b.net.Engine.Run()
		if ss.Stats.DegradedEntries != 1 || ss.Stats.DegradedExits != 1 {
			t.Errorf("%s: entries/exits = %d/%d, want 1/1 (stats %+v)",
				tc.name, ss.Stats.DegradedEntries, ss.Stats.DegradedExits, ss.Stats)
		}
		if ss.Stats.Reconciles != tc.reconciles {
			t.Errorf("%s: reconciles = %d, want %d", tc.name, ss.Stats.Reconciles, tc.reconciles)
		}
		if got := remoteCounterSum(b, ss) + ss.PendingTotal(); got != 10 {
			t.Errorf("%s: remote+pending = %d, want 10", tc.name, got)
		}
	}
}

func TestStateStoreBoundedStalenessWithinBound(t *testing.T) {
	// BoundedStaleness proceeds on the local copy and flushes only when a
	// bound trips; the recorded staleness never exceeds MaxAge and the delta
	// trigger fires at MaxDelta.
	b, ss := stateBed(t, rnic.Config{}, StateStoreConfig{Counters: 8})
	bound := StalenessBound{MaxAge: 20 * sim.Microsecond, MaxDelta: 8}
	ss.SetConsistencyMode(BoundedStaleness, bound)
	if ss.Stats.ModeChanges != 1 {
		t.Fatalf("mode changes = %d, want 1", ss.Stats.ModeChanges)
	}

	// Below MaxDelta, nothing reaches the wire.
	for i := 0; i < 4; i++ {
		ss.Update(i, 1)
	}
	if ss.Stats.FAAIssued != 0 {
		t.Fatalf("bounded mode flushed below the delta bound: %d FAAs", ss.Stats.FAAIssued)
	}
	// Crossing MaxDelta initiates a bound flush immediately.
	for i := 0; i < 4; i++ {
		ss.Update(i, 1)
	}
	if ss.Stats.BoundFlushes != 1 || ss.Stats.FAAIssued == 0 {
		t.Fatalf("delta bound did not trip: %d bound flushes, %d FAAs (stats %+v)",
			ss.Stats.BoundFlushes, ss.Stats.FAAIssued, ss.Stats)
	}

	// The 8 updates coalesced into one FAA per dirty counter.
	b.net.Engine.Run()
	if ss.Stats.FAAIssued != 4 {
		t.Fatalf("FAAs = %d, want 4 (one per counter)", ss.Stats.FAAIssued)
	}
	// A small residual backlog is covered by the age timer.
	ss.Update(0, 1)
	if faas := ss.Stats.FAAIssued; faas != 4 {
		t.Fatalf("sub-bound update flushed eagerly: %d FAAs", faas)
	}
	b.net.Engine.Run() // age timer fires at MaxAge
	if ss.Stats.BoundFlushes != 2 {
		t.Fatalf("age bound never fired: %d bound flushes", ss.Stats.BoundFlushes)
	}
	if ss.Stats.MaxStalenessNs > int64(bound.MaxAge) {
		t.Fatalf("staleness %dns exceeded bound %dns", ss.Stats.MaxStalenessNs, int64(bound.MaxAge))
	}
	if got := remoteCounterSum(b, ss) + ss.PendingTotal(); got != 9 {
		t.Fatalf("remote+pending = %d, want 9", got)
	}
}

func TestStateStoreEventualAbsorbsAndCoalesces(t *testing.T) {
	// Eventual mode never sheds — absorbing the stream locally is the
	// contract — and flushes a shard only when its window is idle, so deltas
	// coalesce into fewer FAAs than updates.
	b, ss := stateBed(t, rnic.Config{}, StateStoreConfig{
		Counters: 8, MaxOutstanding: 1, ShedPendingSlots: 1,
	})
	ss.SetConsistencyMode(Eventual, StalenessBound{})
	const n = 40
	for i := 0; i < n; i++ {
		ss.UpdatePrio(i%4, 1, switchsim.PriorityLow)
	}
	if ss.Stats.ShedUpdates != 0 {
		t.Fatalf("eventual mode shed %d updates", ss.Stats.ShedUpdates)
	}
	b.net.Engine.Run()
	if got := remoteCounterSum(b, ss) + ss.PendingTotal(); got != n {
		t.Fatalf("remote+pending = %d, want %d (stats %+v)", got, n, ss.Stats)
	}
	if ss.Stats.FAAIssued >= n {
		t.Fatalf("eventual mode did not coalesce: %d FAAs for %d updates", ss.Stats.FAAIssued, n)
	}

	// Returning to Strict drains whatever backlog remains and resumes the
	// synchronous contract: back-to-back strict updates go straight out.
	ss.SetConsistencyMode(Strict, StalenessBound{})
	before := ss.Stats.FAAIssued
	ss.Update(0, 1)
	if ss.Stats.FAAIssued != before+1 {
		t.Fatalf("strict update did not post immediately (FAAs %d -> %d)", before, ss.Stats.FAAIssued)
	}
	b.net.Engine.Run()
	if got := remoteCounterSum(b, ss); got != n+1 {
		t.Fatalf("after strict return: remote = %d, want %d", got, n+1)
	}
}

func TestSupervisorHealthLadder(t *testing.T) {
	// A synthetic target walks the full ladder: errors push Healthy →
	// Suspect → Degraded, clean ticks climb back through Recovering with
	// hysteresis, the exhausted veto pins the target down, and the Recover
	// hook fires exactly once per Degraded → Recovering edge.
	eng := sim.NewEngine(1)
	var errs verbs.ErrStats
	exhausted := false
	var applied []ConsistencyMode
	recovers := 0
	sup := NewSupervisor(eng, SupervisorConfig{
		Interval: 10 * sim.Microsecond, DegradeErrors: 2,
		RecoverTicks: 2, HealthyTicks: 2,
	})
	idx := sup.Govern(SupervisorTarget{
		Name:      "fake",
		Errors:    func() verbs.ErrStats { return errs },
		Exhausted: func() bool { return exhausted },
		Apply:     func(m ConsistencyMode, _ StalenessBound) { applied = append(applied, m) },
		Recover:   func() { recovers++ },
	})
	if sup.State(idx) != Healthy || len(applied) != 1 || applied[0] != Strict {
		t.Fatalf("govern: state %v, applied %v", sup.State(idx), applied)
	}
	sup.Start()
	step := func(n int) { eng.RunFor(sim.Duration(n) * 10 * sim.Microsecond) }

	errs.NakPSN = 1 // one error this tick: suspect, not degraded
	step(1)
	if sup.State(idx) != Suspect {
		t.Fatalf("after 1 error: %v, want suspect", sup.State(idx))
	}
	errs.RetryExhausted += 2 // two errors in a tick: degrade threshold
	exhausted = true
	step(1)
	if sup.State(idx) != Degraded {
		t.Fatalf("after burst: %v, want degraded", sup.State(idx))
	}
	step(5) // exhausted veto: clean ticks cannot accrue while the peer is dead
	if sup.State(idx) != Degraded || recovers != 0 {
		t.Fatalf("exhausted veto failed: %v, %d recovers", sup.State(idx), recovers)
	}
	exhausted = false
	step(2) // RecoverTicks clean ticks
	if sup.State(idx) != Recovering || recovers != 1 {
		t.Fatalf("after fault cleared: %v, %d recovers (want recovering, 1)",
			sup.State(idx), recovers)
	}
	errs.NakRKey++ // any error while recovering drops straight back
	step(1)
	if sup.State(idx) != Degraded {
		t.Fatalf("recovering tolerance: %v, want degraded", sup.State(idx))
	}
	step(4) // 2 clean → recovering, 2 more clean → healthy
	if sup.State(idx) != Healthy || recovers != 2 {
		t.Fatalf("final: %v, %d recovers (want healthy, 2)", sup.State(idx), recovers)
	}
	// The mode trail must end with the base contract restored.
	if applied[len(applied)-1] != Strict {
		t.Fatalf("final applied mode %v, want strict (trail %v)", applied[len(applied)-1], applied)
	}
	sup.Stop()
	eng.Run()
	if sup.Stats.Recoveries != 2 || sup.Stats.DegradedEntries != 2 || sup.Stats.HealthyReturns < 1 {
		t.Fatalf("stats %+v", sup.Stats)
	}
}

func TestSupervisorGovernsPacketBuffer(t *testing.T) {
	// A supervisor governs a packet buffer whose only memory server crashes.
	// Liveness comes from a heartbeat group of two probe channels on that
	// same server, so failover has nowhere to go and the group exhausts.
	before := wire.DefaultPool.Stats().Balance()
	b := newBedN(t, 3, 1, switchsim.Config{BufferBytes: 256 << 10}, rnic.Config{MTU: 4096})
	ring := b.establish(t, 1<<22, rnic.PSNTolerant, false)
	probe := func(base uint64) *Channel {
		ch, err := b.ctrl.Establish(ChannelSpec{
			SwitchPort: b.memPort, NIC: b.memNIC, RegionBase: base, RegionSize: 4096,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	fo, err := NewFailover([]*Channel{probe(0x1000000), probe(0x2000000)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := NewPacketBuffer([]*Channel{ring}, 2, PacketBufferConfig{
		HighWaterBytes: 16 << 10, LowWaterBytes: 8 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	pb.RegisterWith(b.disp)
	fo.RegisterWith(b.disp)
	b.sw.Hooks = pb
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if b.disp.Dispatch(ctx) {
			return
		}
		if ctx.Pkt != nil && ctx.Pkt.Eth.Dst == b.hosts[2].MAC {
			pb.Admit(ctx, ctx.Frame)
			return
		}
		ctx.Drop()
	})
	sup := NewSupervisor(b.net.Engine, SupervisorConfig{})
	idx := sup.Govern(Govern("buffer", pb, fo))
	fo.Start()
	sup.Start()
	t.Cleanup(fo.Stop)
	t.Cleanup(sup.Stop)
	incast := func(n int) { // 2:1 toward host 2
		for i := 0; i < n; i++ {
			b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[2], 1500, 1))
			b.net.Ports(b.hosts[1])[0].Send(dataFrame(b.hosts[1], b.hosts[2], 1500, 2))
		}
	}

	// Healthy: the incast spills; loading is held so the ring still holds
	// entries when the server dies.
	pb.PauseLoading()
	incast(100)
	b.net.Engine.RunFor(500 * sim.Microsecond)
	if pb.Stats.Stored == 0 || sup.State(idx) != Healthy {
		t.Fatalf("setup: stored %d, state %v", pb.Stats.Stored, sup.State(idx))
	}

	// Crash: heartbeats go unanswered, the group exhausts, the supervisor
	// degrades the buffer, and new arrivals bypass the ring.
	b.memNIC.Fail()
	pb.ResumeLoading()
	b.net.Engine.RunFor(1500 * sim.Microsecond)
	if sup.State(idx) != Degraded || !pb.Degraded() || !fo.Exhausted {
		t.Fatalf("after crash: state %v, degraded %v, exhausted %v", sup.State(idx), pb.Degraded(), fo.Exhausted)
	}
	incast(20)
	b.net.Engine.RunFor(200 * sim.Microsecond)
	if pb.Stats.DegradedBypassed == 0 {
		t.Fatalf("degraded buffer bypassed nothing: %+v", pb.Stats)
	}

	// Recovery: the server answers again, clean ticks reconcile the buffer
	// back to Healthy, and the next incast spills again.
	b.memNIC.Recover()
	b.net.Engine.RunFor(1 * sim.Millisecond)
	if sup.State(idx) != Healthy || pb.Degraded() {
		t.Fatalf("after recovery: state %v, degraded %v", sup.State(idx), pb.Degraded())
	}
	stored := pb.Stats.Stored
	incast(100)
	b.net.Engine.RunFor(500 * sim.Microsecond)
	if pb.Stats.Stored == stored {
		t.Fatalf("spilling did not resume: %+v", pb.Stats)
	}

	// Quiesce: the ring drains and every frame went back to the pool.
	fo.Stop()
	sup.Stop()
	b.net.Engine.Run()
	if pb.Depth() != 0 || pb.Transport().Pending() != 0 || pb.Detouring() {
		t.Fatalf("ring not drained: depth %d, pending %d, detour %v",
			pb.Depth(), pb.Transport().Pending(), pb.Detouring())
	}
	if got := wire.DefaultPool.Stats().Balance(); got != before {
		t.Fatalf("frame pool unbalanced: %d before, %d after", before, got)
	}
}
