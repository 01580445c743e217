package verbs

import "testing"

// mkMirrored builds a mirrored pair in the unit-test idiom: a credit-windowed
// cumulative primary and a credit-less cumulative replica, both on fake
// endpoints so the tests control every PSN.
func mkMirrored(cfg MirrorConfig) (*fakeEndpoint, *fakeEndpoint, *MirroredQP) {
	pep, rep := &fakeEndpoint{}, &fakeEndpoint{}
	pqp := NewQP(pep, NewCredits(CreditConfig{Window: 16}), QPConfig{Cumulative: true})
	rqp := NewQP(rep, nil, QPConfig{Cumulative: true})
	return pep, rep, NewMirrored(pqp, rqp, cfg)
}

func TestMirroredSyncSettlesOnBothAcks(t *testing.T) {
	pep, rep, m := mkMirrored(MirrorConfig{Mode: ReplicationSync})
	ppsn, rpsn := pep.psn, rep.psn
	if !m.PostFetchAdd(8, 5) {
		t.Fatal("post refused")
	}
	if m.n != 1 || m.Lag() != 1 {
		t.Fatalf("journal=%d lag=%d after post, want 1/1", m.n, m.Lag())
	}
	if m.Stats.MirroredFAAs != 1 {
		t.Fatalf("MirroredFAAs = %d, want 1", m.Stats.MirroredFAAs)
	}
	// Primary ack alone must not settle a Sync entry.
	m.primary.AckCumulative(ppsn)
	m.AckPrimary(ppsn)
	if m.n != 1 || m.Stats.BothAcked != 0 {
		t.Fatalf("primary ack alone settled: journal=%d both=%d",
			m.n, m.Stats.BothAcked)
	}
	// Replica ack completes the pair and drains the journal.
	if n := m.AckReplica(rpsn); n != 1 {
		t.Fatalf("AckReplica acked %d entries, want 1", n)
	}
	if m.n != 0 || m.Lag() != 0 {
		t.Fatalf("journal=%d lag=%d after both acks, want 0/0", m.n, m.Lag())
	}
	if m.Stats.BothAcked != 1 || m.Stats.ReplicaAcked != 1 || m.Stats.ReplicaLost != 0 {
		t.Fatalf("stats = %+v, want BothAcked=1 ReplicaAcked=1 ReplicaLost=0", m.Stats)
	}
}

func TestMirroredAsyncDeclaresLossPastBound(t *testing.T) {
	rep := &fakeEndpoint{fail: true} // replica egress refuses every post
	pqp := NewQP(&fakeEndpoint{}, NewCredits(CreditConfig{Window: 16}), QPConfig{Cumulative: true})
	rqp := NewQP(rep, nil, QPConfig{Cumulative: true})
	m := NewMirrored(pqp, rqp, MirrorConfig{Mode: ReplicationAsync, MaxLag: 2})
	for i := 0; i < 5; i++ {
		if !m.PostFetchAdd(i*8, 1) {
			t.Fatalf("post %d refused", i)
		}
	}
	// Lag is enforced back to MaxLag after every post: 3 of 5 declared lost.
	if m.Lag() != 2 {
		t.Fatalf("lag = %d after enforcement, want 2", m.Lag())
	}
	if m.Stats.ReplicaLost != 3 || m.Stats.LostDelta != 3 {
		t.Fatalf("ReplicaLost=%d LostDelta=%d, want 3/3",
			m.Stats.ReplicaLost, m.Stats.LostDelta)
	}
	// Every declared loss is a typed completion on the primary QP.
	if got := pqp.Stats.Errors.ReplicaLost; got != 3 {
		t.Fatalf("primary typed CQReplicaLost = %d, want 3", got)
	}
	// The lag histogram saw at most MaxLag+1 (sampled before enforcement).
	if m.Stats.Lag.Max > int64(m.MaxLag()+1) {
		t.Fatalf("Lag.Max = %d, want <= %d", m.Stats.Lag.Max, m.MaxLag()+1)
	}
}

func TestMirroredRefusalJournaledAndRetried(t *testing.T) {
	pep, rep, m := mkMirrored(MirrorConfig{Mode: ReplicationSync})
	ppsn := pep.psn
	rep.fail = true
	if !m.PostFetchAdd(0, 3) {
		t.Fatal("primary FAA refused")
	}
	if m.n != 1 || m.Stats.MirroredFAAs != 0 {
		t.Fatalf("refused mirror FAA: journal=%d mirrored=%d, want 1/0",
			m.n, m.Stats.MirroredFAAs)
	}
	// Replica recovers; the next replica ack event retries the journal.
	rep.fail = false
	rpsn := rep.psn
	m.AckReplica(rpsn)
	if m.n != 1 || m.Stats.MirroredFAAs != 1 || rep.psn != rpsn+1 {
		t.Fatalf("after retry: journal=%d mirrored=%d replica psn=%d, want 1/1/%d",
			m.n, m.Stats.MirroredFAAs, rep.psn, rpsn+1)
	}
	// Both acks now settle the retried entry, with nothing declared lost.
	m.primary.AckCumulative(ppsn)
	m.AckPrimary(ppsn)
	if n := m.AckReplica(rpsn); n != 1 || m.n != 0 {
		t.Fatalf("retried entry: acked %d, journal=%d, want 1/0", n, m.n)
	}
	if m.Stats.ReplicaLost != 0 || m.Stats.BothAcked != 1 {
		t.Fatalf("ReplicaLost=%d BothAcked=%d, want 0/1 (Sync FAA retried, not lost)",
			m.Stats.ReplicaLost, m.Stats.BothAcked)
	}
}

func TestMirroredAckReplicaExactAcrossWrap(t *testing.T) {
	// The replica's PSN space straddles the 24-bit wrap. A blip drops the ack
	// for mirror PSN 0xFFFFFF; exact matching must leave that entry un-acked
	// (a cumulative mark at PSN 0 would silently absorb it).
	pep := &fakeEndpoint{}
	rep := &fakeEndpoint{psn: 0xFFFFFE}
	pqp := NewQP(pep, NewCredits(CreditConfig{Window: 16}), QPConfig{Cumulative: true})
	rqp := NewQP(rep, nil, QPConfig{Cumulative: true})
	m := NewMirrored(pqp, rqp, MirrorConfig{Mode: ReplicationSync})
	for i := 0; i < 4; i++ { // mirror PSNs: FFFFFE, FFFFFF, 0, 1
		if !m.PostFetchAdd(i*8, 1) {
			t.Fatalf("post %d refused", i)
		}
	}
	if rep.psn != 2 {
		t.Fatalf("replica PSN = %#x, want wrap to 2", rep.psn)
	}
	if n := m.AckReplica(0xFFFFFE); n != 1 {
		t.Fatalf("ack FFFFFE matched %d, want 1", n)
	}
	// 0xFFFFFF's ack is dropped by the blip. The post-wrap acks still match.
	if n := m.AckReplica(0); n != 1 {
		t.Fatalf("ack 0 matched %d, want 1 (exact, not cumulative)", n)
	}
	if n := m.AckReplica(1); n != 1 {
		t.Fatalf("ack 1 matched %d, want 1", n)
	}
	if m.Stats.ReplicaAcked != 3 {
		t.Fatalf("ReplicaAcked = %d, want 3", m.Stats.ReplicaAcked)
	}
	// The dropped entry stays visible as lag for the scrubber/supervisor.
	if m.Lag() != 1 {
		t.Fatalf("lag = %d, want 1 (the blip-dropped entry)", m.Lag())
	}
}

func TestMirroredPromoteReplaysOnlyUnposted(t *testing.T) {
	// faaEndpoint counts replica-side FAAs so the test can pin exactly-once:
	// entries that reached the replica's wire must NOT be replayed (the
	// replica may hold them; a blind replay would double-apply).
	pep := &fakeEndpoint{}
	rep := &faaEndpoint{}
	pqp := NewQP(pep, NewCredits(CreditConfig{Window: 16}), QPConfig{Cumulative: true})
	rqp := NewQP(rep, nil, QPConfig{Cumulative: true})
	m := NewMirrored(pqp, rqp, MirrorConfig{Mode: ReplicationSync})

	// One post lands on the replica's wire (un-acked), then the replica dies
	// and three more posts journal un-posted.
	if !m.PostFetchAdd(0, 10) {
		t.Fatal("post refused")
	}
	rep.fail = true
	for i := 1; i < 4; i++ {
		if !m.PostFetchAdd(i*8, uint64(10+i)) {
			t.Fatalf("post %d refused", i)
		}
	}
	if rep.faas != 1 || m.n != 4 {
		t.Fatalf("pre-promotion: replica faas=%d journal=%d, want 1/4", rep.faas, m.n)
	}

	// The primary crashes; the replica comes back and is promoted.
	rep.fail = false
	if n := m.Promote(); n != 3 {
		t.Fatalf("Promote replayed %d, want 3 (the un-posted entries)", n)
	}
	if rep.faas != 4 || rep.deltas != 10+11+12+13 {
		t.Fatalf("post-promotion: replica faas=%d deltas=%d, want 4 / 46 (exactly once each)",
			rep.faas, rep.deltas)
	}
	if !m.Promoted() || m.n != 0 {
		t.Fatalf("promoted=%v journal=%d, want true/0", m.Promoted(), m.n)
	}
	if m.Stats.Replayed != 3 || m.Stats.Promotions != 1 {
		t.Fatalf("Replayed=%d Promotions=%d, want 3/1", m.Stats.Replayed, m.Stats.Promotions)
	}
	// Promote is idempotent and post-promotion posts delegate to the primary.
	if m.Promote() != 0 {
		t.Fatal("second Promote replayed entries")
	}
	before := rep.faas
	if !m.PostFetchAdd(0, 1) {
		t.Fatal("post-promotion post refused")
	}
	if rep.faas != before || m.n != 0 {
		t.Fatalf("post-promotion post touched the mirror: faas=%d journal=%d",
			rep.faas, m.n)
	}
}

func TestMirroredRingOverflowForceSettlesHead(t *testing.T) {
	// A full journal force-settles its head even in Sync mode: the ring is
	// the memory bound, and an unsettled evicted head is a counted loss.
	rep := &fakeEndpoint{fail: true}
	pqp := NewQP(&fakeEndpoint{}, NewCredits(CreditConfig{Window: mirrorJournal + 1}), QPConfig{Cumulative: true})
	rqp := NewQP(rep, nil, QPConfig{Cumulative: true})
	m := NewMirrored(pqp, rqp, MirrorConfig{Mode: ReplicationSync})
	for i := 0; i < mirrorJournal+1; i++ {
		if !m.PostFetchAdd(i*8, 1) {
			t.Fatalf("post %d refused", i)
		}
	}
	if m.n != mirrorJournal {
		t.Fatalf("journal = %d, want capacity %d", m.n, mirrorJournal)
	}
	if m.Stats.ReplicaLost != 1 || m.Stats.LostDelta != 1 {
		t.Fatalf("ReplicaLost=%d LostDelta=%d, want 1/1 (evicted head)",
			m.Stats.ReplicaLost, m.Stats.LostDelta)
	}
	if got := pqp.Stats.Errors.ReplicaLost; got != 1 {
		t.Fatalf("primary typed CQReplicaLost = %d, want 1", got)
	}
}
