package core

import (
	"testing"

	"gem/internal/rnic"
	"gem/internal/sim"
	"gem/internal/switchsim"
	"gem/internal/wire"
)

// stateBed: host0 sends to host1 through an L2-ish pipeline that also
// counts every data packet in the remote state store.
func stateBed(t *testing.T, nicCfg rnic.Config, ssCfg StateStoreConfig) (*bed, *StateStore) {
	t.Helper()
	b := newBed(t, 2, switchsim.Config{}, nicCfg)
	ssCfg.fillDefaults()
	ch := b.establish(t, ssCfg.Counters*8, rnic.PSNTolerant, false)
	ss, err := NewStateStore(ch, ssCfg)
	if err != nil {
		t.Fatal(err)
	}
	b.disp.Register(ch, ss)
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if b.disp.Dispatch(ctx) {
			return
		}
		if ctx.Pkt == nil || !ctx.Pkt.HasIPv4 {
			ctx.Drop()
			return
		}
		// Count, then forward to the other host (ports 0/1).
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

// nicFor resolves a channel's memory server by its peer MAC (RKeys and QPNs
// are per-NIC counters and may collide across servers).
func (b *bed) nicFor(ch *Channel) *rnic.NIC {
	for _, nic := range b.memNICs {
		if nic.MAC == ch.PeerMAC {
			return nic
		}
	}
	return b.memNIC
}

// remoteCounterSum reads all remote counters back from server DRAM,
// following each counter to its home shard's server.
func remoteCounterSum(b *bed, ss *StateStore) uint64 {
	var sum uint64
	for i := 0; i < ss.cfg.Counters; i++ {
		ch, off := ss.CounterHome(i)
		v, err := b.nicFor(ch).ReadCounter(ch.RKey, ch.Base+uint64(off))
		if err == nil {
			sum += v
		}
	}
	return sum
}

func TestStateStoreCountsExactly(t *testing.T) {
	b, ss := stateBed(t, rnic.Config{}, StateStoreConfig{Counters: 256})
	const n = 500
	for i := 0; i < n; i++ {
		b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[1], 256, uint16(i%8+1)))
	}
	b.net.Engine.Run()
	total := remoteCounterSum(b, ss) + ss.PendingTotal()
	if total != n {
		t.Fatalf("remote+pending = %d, want %d (stats %+v)", total, n, ss.Stats)
	}
	// "the updated value is 100% accurate": with a drained network the
	// pending side must also be flushed… unless batching held deltas
	// back; with Batch=1 everything should have gone remote.
	if remote := remoteCounterSum(b, ss); remote != n {
		t.Fatalf("remote counters = %d, want %d (pending %d)", remote, n, ss.PendingTotal())
	}
	if b.hosts[1].Received != n {
		t.Fatalf("e2e delivery suffered: %d/%d", b.hosts[1].Received, n)
	}
	if b.memHost.CPUOps != 0 {
		t.Fatal("state store touched the server CPU")
	}
}

func TestStateStoreOutstandingCapRespected(t *testing.T) {
	// Slow atomics: the cap must hold while updates accumulate locally.
	b, ss := stateBed(t, rnic.Config{AtomicOpsPerSec: 1e5},
		StateStoreConfig{Counters: 64, MaxOutstanding: 4})
	maxSeen := 0
	for i := 0; i < 300; i++ {
		b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[1], 1500, uint16(i%16+1)))
	}
	// Sample outstanding during the run.
	b.net.Engine.Ticker(1*sim.Microsecond, func() bool {
		if ss.Outstanding() > maxSeen {
			maxSeen = ss.Outstanding()
		}
		return b.net.Engine.Pending() > 1
	})
	b.net.Engine.Run()
	if maxSeen > 4 {
		t.Fatalf("outstanding peaked at %d, cap 4", maxSeen)
	}
	if ss.Stats.Accumulated == 0 {
		t.Fatal("nothing accumulated despite saturation")
	}
	// Accuracy invariant holds even under saturation.
	if got := remoteCounterSum(b, ss) + ss.PendingTotal(); got != 300 {
		t.Fatalf("remote+pending = %d, want 300", got)
	}
}

func TestStateStoreAccumulationCoalesces(t *testing.T) {
	// With a saturated NIC, many updates to the same counter must merge
	// into few FAAs carrying accumulated deltas.
	b, ss := stateBed(t, rnic.Config{AtomicOpsPerSec: 2e5},
		StateStoreConfig{Counters: 8, MaxOutstanding: 2})
	const n = 400
	for i := 0; i < n; i++ {
		b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[1], 1500, 7)) // one flow
	}
	b.net.Engine.Run()
	if ss.Stats.FAAIssued >= n {
		t.Fatalf("FAAs = %d for %d updates: no coalescing", ss.Stats.FAAIssued, n)
	}
	if got := remoteCounterSum(b, ss); got != n {
		t.Fatalf("remote sum = %d, want %d", got, n)
	}
}

func TestStateStoreBatching(t *testing.T) {
	// Batch=8: FAAs carry ≥8 per op once the pipe is busy, cutting the
	// message count roughly 8x (E8a's mechanism).
	b, ss := stateBed(t, rnic.Config{}, StateStoreConfig{Counters: 4, Batch: 8})
	const n = 320
	for i := 0; i < n; i++ {
		b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[1], 1500, 3))
	}
	b.net.Engine.Run()
	if ss.Stats.FAAIssued > n/4 {
		t.Fatalf("FAAs = %d for %d updates at batch 8", ss.Stats.FAAIssued, n)
	}
	if got := remoteCounterSum(b, ss) + ss.PendingTotal(); got != n {
		t.Fatalf("remote+pending = %d, want %d", got, n)
	}
}

func TestHeldBatchRipeCounterPassesUnripeHead(t *testing.T) {
	// Held batching posts a counter the moment its own delta reaches Batch,
	// even with an unripe counter ahead of it in the dirty FIFO; the unripe
	// one keeps waiting through the ACK.
	b, ss := stateBed(t, rnic.Config{},
		StateStoreConfig{Counters: 8, Batch: 4, BatchMaxAge: 50 * sim.Microsecond})
	ss.Update(0, 1) // unripe FIFO head
	for i := 0; i < 4; i++ {
		ss.Update(1, 1)
	}
	if ss.Stats.FAAIssued != 1 || ss.Pending(0) != 1 || ss.Pending(1) != 0 {
		t.Fatalf("ripe counter did not post past the head: FAAs %d, pending %d/%d",
			ss.Stats.FAAIssued, ss.Pending(0), ss.Pending(1))
	}
	b.net.Engine.RunFor(40 * sim.Microsecond)
	if ss.Stats.AcksSeen != 1 || ss.Stats.FAAIssued != 1 {
		t.Fatalf("the ACK released the hold: %d ACKs, %d FAAs", ss.Stats.AcksSeen, ss.Stats.FAAIssued)
	}
}

func TestHeldBatchAgeFlushPostsRestOnce(t *testing.T) {
	// The age flush posts the unripe backlog exactly once. With a one-slot
	// window it is cut short; the refused rest re-arms the age flush, which
	// drains it with no further updates.
	b, ss := stateBed(t, rnic.Config{}, StateStoreConfig{
		Counters: 8, MaxOutstanding: 1, Batch: 8, BatchMaxAge: 50 * sim.Microsecond,
	})
	for i := 0; i < 4; i++ {
		ss.Update(i, uint64(i+1))
	}
	if ss.Stats.FAAIssued != 0 {
		t.Fatalf("unripe counters posted: %d FAAs", ss.Stats.FAAIssued)
	}
	b.net.Engine.RunFor(50 * sim.Microsecond)
	if ss.Stats.FAAIssued != 1 {
		t.Fatalf("age flush posted %d FAAs through a one-slot window, want 1", ss.Stats.FAAIssued)
	}
	b.net.Engine.Run()
	if ss.Stats.FAAIssued != 4 || ss.PendingTotal() != 0 {
		t.Fatalf("FAAs = %d, pending = %d; want 4 and 0", ss.Stats.FAAIssued, ss.PendingTotal())
	}
	for i := 0; i < 4; i++ {
		ch, off := ss.CounterHome(i)
		if v, _ := b.nicFor(ch).ReadCounter(ch.RKey, ch.Base+uint64(off)); v != uint64(i+1) {
			t.Fatalf("counter %d = %d, want exactly %d", i, v, i+1)
		}
	}
}

func TestHeldBacklogDrainsWithoutFurtherUpdates(t *testing.T) {
	// A held backlog that no age flush covers yet — accumulated while
	// degraded or in a relaxed mode — must arm one when Reconcile, a rebind
	// or a return to Strict flushes it, or it would wait forever.
	cases := []struct {
		name   string
		park   func(ss *StateStore)
		resume func(ss *StateStore, standby *Channel)
	}{
		{"reconcile",
			func(ss *StateStore) { ss.SetDegraded(true) },
			func(ss *StateStore, _ *Channel) { ss.Reconcile() }},
		{"rebind",
			func(ss *StateStore) { ss.SetDegraded(true) },
			func(ss *StateStore, standby *Channel) {
				ss.SetDegraded(false) // leaves the posture without flushing
				ss.RebindShard(0, standby)
			}},
		{"strict-return",
			func(ss *StateStore) {
				ss.SetConsistencyMode(BoundedStaleness, StalenessBound{MaxAge: sim.Millisecond, MaxDelta: 1 << 20})
			},
			func(ss *StateStore, _ *Channel) { ss.SetConsistencyMode(Strict, StalenessBound{}) }},
	}
	for _, tc := range cases {
		b := newBedN(t, 1, 2, switchsim.Config{}, rnic.Config{})
		primary := b.establishOn(t, 0, 64*8, rnic.PSNTolerant, false)
		standby := b.establishOn(t, 1, 64*8, rnic.PSNTolerant, false)
		ss, err := NewStateStore(primary, StateStoreConfig{
			Counters: 64, Batch: 4, BatchMaxAge: 50 * sim.Microsecond,
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
		tc.park(ss)
		for i := 0; i < 3; i++ {
			ss.Update(1, 1)
		}
		tc.resume(ss, standby)
		b.net.Engine.Run()
		if got := remoteCounterSum(b, ss); got != 3 || ss.PendingTotal() != 0 || ss.Stats.FAAIssued != 1 {
			t.Errorf("%s: remote = %d, pending = %d, FAAs = %d; want 3, 0, 1",
				tc.name, got, ss.PendingTotal(), ss.Stats.FAAIssued)
		}
	}
}

func TestStateStorePendingTableOverflowCounted(t *testing.T) {
	b, ss := stateBed(t, rnic.Config{AtomicOpsPerSec: 1e4},
		StateStoreConfig{Counters: 1024, MaxOutstanding: 1, PendingSlots: 4})
	// Many distinct flows, saturated NIC, 4 pending slots: overflow.
	for i := 0; i < 200; i++ {
		b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[1], 1500, uint16(i+1)))
	}
	b.net.Engine.Run()
	if ss.Stats.DroppedUpdates == 0 {
		t.Fatal("no dropped updates despite 4 pending slots")
	}
	// Conservation: counted = remote + pending + dropped.
	got := remoteCounterSum(b, ss) + ss.PendingTotal() + uint64(ss.Stats.DroppedUpdates)
	if got != 200 {
		t.Fatalf("conservation broken: %d != 200", got)
	}
}

func TestStateStoreDirectUpdateByIndex(t *testing.T) {
	b, ss := stateBed(t, rnic.Config{}, StateStoreConfig{Counters: 16})
	ss.Update(3, 10)
	ss.Update(3, 5)
	b.net.Engine.Run()
	ch3, off3 := ss.CounterHome(3)
	v, err := b.memNIC.ReadCounter(ch3.RKey, ch3.Base+uint64(off3))
	if err != nil || v != 15 {
		t.Fatalf("counter[3] = %d (%v), want 15", v, err)
	}
}

func TestStateStoreIndexOutOfRangePanics(t *testing.T) {
	_, ss := stateBed(t, rnic.Config{}, StateStoreConfig{Counters: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ss.Update(4, 1)
}

func TestStateStoreConfigValidation(t *testing.T) {
	b := newBed(t, 1, switchsim.Config{}, rnic.Config{})
	ch := b.establish(t, 64, rnic.PSNTolerant, false)
	if _, err := NewStateStore(ch, StateStoreConfig{Counters: 0}); err == nil {
		t.Fatal("zero counters accepted")
	}
	if _, err := NewStateStore(ch, StateStoreConfig{Counters: 1000}); err == nil {
		t.Fatal("counters beyond region accepted")
	}
}

func TestStateStoreTimeoutReapsLostFAA(t *testing.T) {
	// Deliver updates with a dispatcher that eats atomic ACKs: the
	// outstanding tracker must reap and keep making progress.
	b := newBed(t, 2, switchsim.Config{}, rnic.Config{})
	ch := b.establish(t, 64*8, rnic.PSNTolerant, false)
	ss, err := NewStateStore(ch, StateStoreConfig{
		Counters: 64, MaxOutstanding: 2, OutstandingTimeout: 10 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// No dispatcher registration: ACKs are dropped by the pipeline.
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) { ctx.Drop() })
	ss.Update(0, 1)
	ss.Update(1, 1)
	ss.Update(2, 1) // accumulates: outstanding is full
	if ss.Outstanding() != 2 {
		t.Fatalf("outstanding = %d", ss.Outstanding())
	}
	b.net.Engine.RunFor(50 * sim.Microsecond)
	ss.Update(3, 1) // triggers reap, then flush of pending
	if ss.Stats.TimedOut == 0 {
		t.Fatal("lost FAAs never timed out")
	}
	if ss.Outstanding() > 2 {
		t.Fatalf("outstanding = %d after reap", ss.Outstanding())
	}
}

// Property-ish sweep: conservation of counts across random flow mixes.
func TestStateStoreConservationSweep(t *testing.T) {
	for _, flows := range []int{1, 3, 17, 64} {
		b, ss := stateBed(t, rnic.Config{AtomicOpsPerSec: 5e5},
			StateStoreConfig{Counters: 128})
		const n = 300
		for i := 0; i < n; i++ {
			b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[1], 512, uint16(i%flows+1)))
		}
		b.net.Engine.Run()
		got := remoteCounterSum(b, ss) + ss.PendingTotal() + uint64(ss.Stats.DroppedUpdates)
		if got != n {
			t.Fatalf("flows=%d: conservation %d != %d (stats %+v)", flows, got, n, ss.Stats)
		}
	}
}

func TestStateStoreSignedCancellationThenFlush(t *testing.T) {
	// Regression: +1 then -1 cancels the pending delta; a later +1 to the
	// same counter must still flush (the zeroed map entry must not strand
	// the counter outside the dirty queue).
	b, ss := stateBed(t, rnic.Config{AtomicOpsPerSec: 1e5},
		StateStoreConfig{Counters: 8, MaxOutstanding: 1})
	ss.Update(0, 1) // occupies the single outstanding slot
	ss.Update(3, 1)
	ss.Update(3, ^uint64(0)) // -1: cancels while parked
	b.net.Engine.Run()
	ss.Update(3, 5)
	b.net.Engine.Run()
	ch3, off3 := ss.CounterHome(3)
	v, err := b.memNIC.ReadCounter(ch3.RKey, ch3.Base+uint64(off3))
	if err != nil || v != 5 {
		t.Fatalf("counter[3] = %d (%v), want 5", v, err)
	}
}
