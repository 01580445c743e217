package verbs

import "testing"

// faaEndpoint extends fakeEndpoint with FAA accounting, for striping unit
// tests.
type faaEndpoint struct {
	fakeEndpoint
	faas   int
	deltas uint64
}

func (e *faaEndpoint) FetchAdd(offset int, delta uint64) (uint32, bool) {
	p, ok := e.fakeEndpoint.FetchAdd(offset, delta)
	if ok {
		e.faas++
		e.deltas += delta
	}
	return p, ok
}

func TestStripedPlacement(t *testing.T) {
	mk := func(n int, cfg StripeConfig) *StripedQP {
		shards := make([]*QP, n)
		for i := range shards {
			shards[i] = NewQP(&fakeEndpoint{}, nil, QPConfig{})
		}
		return NewStriped(shards, cfg)
	}

	// Single shard degenerates to the unsharded layout: shard 0, offset
	// key*EntrySize.
	s1 := mk(1, StripeConfig{EntrySize: 8})
	for _, k := range []uint64{0, 1, 7, 1000} {
		if s1.ShardOf(k) != 0 || s1.Offset(k) != int(k)*8 {
			t.Fatalf("n=1 placement of %d: shard %d off %d", k, s1.ShardOf(k), s1.Offset(k))
		}
	}

	// Modulo placement: key k lives on shard k%n at slot k/n.
	s4 := mk(4, StripeConfig{EntrySize: 16})
	for _, c := range []struct {
		key        uint64
		shard, off int
	}{{0, 0, 0}, {1, 1, 0}, {5, 1, 16}, {11, 3, 32}} {
		if s4.ShardOf(c.key) != c.shard || s4.Offset(c.key) != c.off {
			t.Fatalf("placement of %d: shard %d off %d, want %d/%d",
				c.key, s4.ShardOf(c.key), s4.Offset(c.key), c.shard, c.off)
		}
	}

	// SlotsPerShard wraps the shard-local slot (ring semantics): with 4
	// shards of 3 slots, global index 12 reuses shard 0 slot 0.
	ring := mk(4, StripeConfig{EntrySize: 10, SlotsPerShard: 3})
	if ring.ShardOf(12) != 0 || ring.Offset(12) != 0 {
		t.Fatalf("ring wrap: shard %d off %d, want 0/0", ring.ShardOf(12), ring.Offset(12))
	}
	if ring.Offset(16) != 10 { // key 16: slot (16/4) mod 3 = 1
		t.Fatalf("ring slot for 16: off %d, want 10", ring.Offset(16))
	}
}

func TestStripedPostRoutesToHomeShard(t *testing.T) {
	eps := []*faaEndpoint{{}, {}}
	shards := []*QP{
		NewQP(eps[0], nil, QPConfig{Cumulative: true}),
		NewQP(eps[1], nil, QPConfig{Cumulative: true}),
	}
	s := NewStriped(shards, StripeConfig{EntrySize: 8})
	for k := uint64(0); k < 6; k++ {
		if !s.Home(k).PostFetchAdd(s.Offset(k), k+1) {
			t.Fatalf("post %d refused", k)
		}
	}
	// Even keys on shard 0, odd on shard 1; deltas prove offsets/keys routed.
	if eps[0].faas != 3 || eps[1].faas != 3 {
		t.Fatalf("faa split %d/%d, want 3/3", eps[0].faas, eps[1].faas)
	}
	if eps[0].deltas != 1+3+5 || eps[1].deltas != 2+4+6 {
		t.Fatalf("delta split %d/%d", eps[0].deltas, eps[1].deltas)
	}
	if s.Pending() != 6 {
		t.Fatalf("pending %d, want 6", s.Pending())
	}
	// Per-shard cumulative ACKs retire independently; merged stats add up.
	shards[0].AckCumulative(2)
	if s.Pending() != 3 {
		t.Fatalf("pending after shard-0 ack: %d, want 3", s.Pending())
	}
	shards[1].AckCumulative(2)
	st := s.Stats()
	if st.FetchAdd.Posted != 6 || st.FetchAdd.Completed != 6 {
		t.Fatalf("merged stats %+v", st.FetchAdd)
	}
}

func TestStripedPerShardCredits(t *testing.T) {
	eps := []*faaEndpoint{{}, {}}
	crs := []*Credits{
		NewCredits(CreditConfig{Window: 1}),
		NewCredits(CreditConfig{Window: 1}),
	}
	shards := []*QP{
		NewQP(eps[0], crs[0], QPConfig{TokenIndex: true}),
		NewQP(eps[1], crs[1], QPConfig{TokenIndex: true}),
	}
	s := NewStriped(shards, StripeConfig{EntrySize: 64})
	if !s.PostRead(0, 64, 1, CreditTry) {
		t.Fatal("first post on shard 0 refused")
	}
	// Shard 0's window is exhausted; shard 1's is untouched.
	if s.CanPost(2) {
		t.Fatal("shard 0 should be out of credits")
	}
	if !s.PostRead(1, 64, 1, CreditTry) {
		t.Fatal("shard 1 post refused despite private window")
	}
	if !s.TokenPending(0) || !s.TokenPending(1) || s.TokenPending(2) {
		t.Fatal("token index misrouted")
	}
}
