package core

import (
	"bytes"
	"testing"

	"gem/internal/core/verbs"
	"gem/internal/rnic"
	"gem/internal/sim"
	"gem/internal/switchsim"
)

// replicatedBed wires one host and two memory servers: a primary channel on
// server 0 carrying a replicated StateStore, its replica channel on server 1.
func replicatedBed(t *testing.T, ssCfg StateStoreConfig, mCfg verbs.MirrorConfig) (*bed, *StateStore, *verbs.MirroredQP, *Channel, *Channel) {
	t.Helper()
	b := newBedN(t, 1, 2, switchsim.Config{}, rnic.Config{})
	ssCfg.fillDefaults()
	primary := b.establishOn(t, 0, ssCfg.Counters*8, rnic.PSNTolerant, false)
	replica := b.establishOn(t, 1, ssCfg.Counters*8, rnic.PSNTolerant, false)
	ss, err := NewStateStore(primary, ssCfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ss.Replicate(0, replica, mCfg)
	if err != nil {
		t.Fatal(err)
	}
	b.disp.Register(primary, ss)
	b.disp.Register(replica, ss)
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if !b.disp.Dispatch(ctx) {
			ctx.Drop()
		}
	})
	return b, ss, m, primary, replica
}

func TestStateStoreReplicaCrashScrubReseeds(t *testing.T) {
	// A replica crash that wipes the replica's DRAM leaves the two copies
	// diverged even though every mirror post was acknowledged before the
	// crash. The anti-entropy scrubber must detect the divergence and re-seed
	// the replica from the primary, byte for byte, without disturbing the
	// primary copy.
	b, ss, m, primary, replica := replicatedBed(t,
		StateStoreConfig{Counters: 8, MaxOutstanding: 4},
		verbs.MirrorConfig{Mode: verbs.ReplicationSync})

	for i := 0; i < 8; i++ {
		ss.Update(i, uint64(i+1))
	}
	b.net.Engine.Run()

	preg := b.memNICs[0].LookupRegion(primary.RKey)
	rreg := b.memNICs[1].LookupRegion(replica.RKey)
	if !bytes.Equal(preg.Bytes()[:8*8], rreg.Bytes()[:8*8]) {
		t.Fatal("mirrored copies diverge before the crash")
	}

	// Replica crash-with-wipe: the region bytes are gone, the mirror's
	// accounting says everything was acknowledged — only a scrub can notice.
	b.memNICs[1].WipeRegions()

	sc := NewScrubber(b.net.Engine, preg, rreg, 0, 8*8, ScrubConfig{
		Interval: sim.Microsecond, Chunk: 16,
		Live: func() bool {
			return !m.Promoted() && m.Lag() == 0 && ss.Outstanding() == 0
		},
	})
	sc.Start()
	b.net.Engine.RunFor(64 * sim.Microsecond)
	sc.Stop()

	if sc.Stats.Diverged == 0 || sc.Stats.Repairs == 0 || sc.Stats.BytesRepaired == 0 {
		t.Fatalf("scrub saw no divergence: %+v", sc.Stats)
	}
	if !bytes.Equal(preg.Bytes()[:8*8], rreg.Bytes()[:8*8]) {
		t.Fatal("replica not re-seeded to byte equality")
	}
	if got := remoteCounterSum(b, ss); got != 1+2+3+4+5+6+7+8 {
		t.Fatalf("primary disturbed by scrub: sum = %d, want 36", got)
	}
}

func TestStateStoreReconcileRacesPromotion(t *testing.T) {
	// Reconcile racing a promotion: counters 0–1 are in flight on the primary
	// (and mirrored to the replica), 2–3 park on the full window, and 4–7
	// park in a degraded backlog. Promoting mid-race must (a) not replay the
	// journal entries that already reached the replica's wire, (b) return
	// every aborted credit, and (c) let the following Reconcile flush the
	// backlog to the replica exactly once.
	b, ss, m, primary, replica := replicatedBed(t,
		StateStoreConfig{Counters: 8, MaxOutstanding: 2},
		verbs.MirrorConfig{Mode: verbs.ReplicationSync})

	ss.Update(0, 1)
	ss.Update(1, 1)
	ss.Update(2, 1) // window full: accumulates
	ss.Update(3, 1)
	oldCredits := ss.ShardCredits(0)
	if oldCredits.Outstanding() != 2 {
		t.Fatalf("setup: outstanding = %d, want 2", oldCredits.Outstanding())
	}

	ss.SetDegraded(true)
	for i := 4; i < 8; i++ {
		ss.Update(i, 1)
	}

	// The primary is declared dead; the shard promotes while its window is
	// still in flight and the store is still degraded.
	if !ss.PromoteShard(0) {
		t.Fatal("promotion refused")
	}
	if oldCredits.Outstanding() != 0 {
		t.Fatalf("abort leaked credits: %d outstanding", oldCredits.Outstanding())
	}
	if m.Stats.Replayed != 0 {
		t.Fatalf("promotion replayed %d wire-posted entries (double-apply)", m.Stats.Replayed)
	}
	if ss.PromoteShard(0) {
		t.Fatal("second promotion not a no-op")
	}

	ss.Reconcile()
	b.net.Engine.Run()

	// Every counter lands on the replica exactly once: 0–1 via the mirror,
	// 2–7 via the reconcile flush onto the rebound shard.
	for i := 0; i < 8; i++ {
		v, err := b.memNICs[1].ReadCounter(replica.RKey, replica.Base+uint64(i*8))
		if err != nil {
			t.Fatalf("counter %d: %v", i, err)
		}
		if v != 1 {
			t.Fatalf("replica counter %d = %d, want exactly 1 (stats %+v)", i, v, ss.Stats)
		}
	}
	// The aborted in-flight pair still executed on the (alive) old primary;
	// its late ACKs must not confuse the rebound shard.
	var psum uint64
	for i := 0; i < 8; i++ {
		v, _ := b.memNICs[0].ReadCounter(primary.RKey, primary.Base+uint64(i*8))
		psum += v
	}
	if psum != 2 {
		t.Fatalf("old primary sum = %d, want 2 (the aborted in-flight pair)", psum)
	}
	if ss.PendingTotal() != 0 {
		t.Fatalf("pending = %d after reconcile", ss.PendingTotal())
	}
	if n := ss.ShardCredits(0).Outstanding(); n != 0 {
		t.Fatalf("credits leaked: %d outstanding after drain", n)
	}
}
