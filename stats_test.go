package gem

import "testing"

// TestStatsSnapshotWalk checks that tb.Stats() reaches counters through
// wrapped handler chains (Retransmitter around a StateStore) and channel
// accounting.
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
}
