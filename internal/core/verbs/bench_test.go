package verbs

// Allocation gates for the transport hot paths, in the style of the wire
// pool gates (PR 1): the post→inject and completion-dispatch cycles must
// run at 0 allocs/op once warm. WQEs come from the freelist, the PSN/token
// indexes churn a bounded key set, and reassembly reuses one scratch
// buffer — so a warm QP never touches the heap. Frame building itself is
// gated separately in internal/wire (the pooled Build*Into paths).

import (
	"testing"

	"gem/internal/wire"
)

// readCycle is one post→inject→complete round on the exact-PSN path
// (the PacketBuffer shape: token-indexed, windowed credits).
func readCycle(ep *fakeEndpoint, qp *QP, t *testing.T) {
	psn := ep.psn
	if !qp.PostRead(1, 0, 128, 1, CreditTry) {
		t.Fatal("post refused")
	}
	if _, ok := qp.CompleteExact(psn); !ok {
		t.Fatal("completion missed")
	}
}

// faaCycle is one post→inject→ack round on the cumulative path (the
// StateStore shape: FIFO retirement by ACK PSN).
func faaCycle(ep *fakeEndpoint, qp *QP, t *testing.T) {
	psn := ep.psn
	if !qp.PostFetchAdd(0, 1) {
		t.Fatal("post refused")
	}
	if n := qp.AckCumulative(psn); n != 1 {
		t.Fatalf("ack retired %d, want 1", n)
	}
}

// respCycle is one multi-packet completion dispatch: a 2-packet READ
// reassembled from First+Last segments through the shared scratch buffer.
func respCycle(ep *fakeEndpoint, qp *QP, first, last *wire.Packet, t *testing.T) {
	psn := ep.psn
	if !qp.PostRead(1, 0, 2048, 2, CreditTry) {
		t.Fatal("post refused")
	}
	first.BTH.PSN = psn
	if _, _, st := qp.ReadResponse(first); st != CQNone {
		t.Fatalf("First status = %v", st)
	}
	last.BTH.PSN = (psn + 1) & PSNMask
	if _, _, st := qp.ReadResponse(last); st != CQDone {
		t.Fatalf("Last status = %v", st)
	}
}

// stripedBed builds a striped QP of cumulative shards over fake endpoints.
func stripedBed(shards int) ([]*fakeEndpoint, *StripedQP) {
	eps := make([]*fakeEndpoint, shards)
	qps := make([]*QP, shards)
	for i := range qps {
		eps[i] = &fakeEndpoint{}
		qps[i] = NewQP(eps[i], NewCredits(CreditConfig{Window: 16}), QPConfig{Cumulative: true})
	}
	return eps, NewStriped(qps, StripeConfig{EntrySize: 8})
}

// stripedCycle is one striped post→complete round: eight FAAs posted across
// four shards (two per shard) the way the state store posts them, on the
// key's home shard at its striped offset, cumulative ACKs retiring all of it.
func stripedCycle(eps []*fakeEndpoint, s *StripedQP, t *testing.T) {
	var psns [4]uint32
	for i, ep := range eps {
		psns[i] = ep.psn
	}
	for k := uint64(0); k < 8; k++ {
		key := k % 4
		if !s.Shard(s.ShardOf(key)).PostFetchAdd(s.Offset(key), 1) {
			t.Fatal("post refused")
		}
	}
	for i := range eps {
		if n := s.Shard(i).AckCumulative((psns[i] + 1) & PSNMask); n != 2 {
			t.Fatalf("shard %d ack retired %d, want 2", i, n)
		}
	}
}

// mirroredCycle is one post→mirror→complete round on a mirrored QP: a FAA
// shadow-posted to the replica, the primary ack settling the primary side and
// the exact-PSN replica ack draining the journal.
func mirroredCycle(pep, rep *fakeEndpoint, m *MirroredQP, t *testing.T) {
	ppsn, rpsn := pep.psn, rep.psn
	if !m.PostFetchAdd(0, 1) {
		t.Fatal("post refused")
	}
	m.primary.AckCumulative(ppsn)
	m.AckPrimary(ppsn)
	if n := m.AckReplica(rpsn); n != 1 {
		t.Fatalf("replica acked %d, want 1", n)
	}
}

// TestTransportZeroAlloc is the hard gate behind the 0 allocs/op
// acceptance criterion for the transport core.
func TestTransportZeroAlloc(t *testing.T) {
	ep := &fakeEndpoint{}
	qp := NewQP(ep, NewCredits(CreditConfig{Window: 16}), QPConfig{TokenIndex: true})
	readCycle(ep, qp, t) // warm the freelist and index buckets
	if n := testing.AllocsPerRun(200, func() { readCycle(ep, qp, t) }); n != 0 {
		t.Fatalf("READ post+complete: %v allocs/op, want 0", n)
	}

	epF := &fakeEndpoint{}
	qpF := NewQP(epF, NewCredits(CreditConfig{Window: 16}), QPConfig{Cumulative: true})
	faaCycle(epF, qpF, t)
	if n := testing.AllocsPerRun(200, func() { faaCycle(epF, qpF, t) }); n != 0 {
		t.Fatalf("FAA post+ack: %v allocs/op, want 0", n)
	}

	epR := &fakeEndpoint{}
	qpR := NewQP(epR, NewCredits(CreditConfig{Window: 16}), QPConfig{TokenIndex: true})
	payload := make([]byte, 1024)
	first := &wire.Packet{BTH: wire.BTH{Opcode: wire.OpReadResponseFirst}, Payload: payload}
	last := &wire.Packet{BTH: wire.BTH{Opcode: wire.OpReadResponseLast}, Payload: payload}
	respCycle(epR, qpR, first, last, t) // warm the reassembly scratch
	if n := testing.AllocsPerRun(200, func() { respCycle(epR, qpR, first, last, t) }); n != 0 {
		t.Fatalf("multi-packet dispatch: %v allocs/op, want 0", n)
	}

	eps, striped := stripedBed(4)
	stripedCycle(eps, striped, t) // warm every shard's freelist
	if n := testing.AllocsPerRun(200, func() { stripedCycle(eps, striped, t) }); n != 0 {
		t.Fatalf("striped post→complete: %v allocs/op, want 0", n)
	}

	pep, rep := &fakeEndpoint{}, &fakeEndpoint{}
	pqp := NewQP(pep, NewCredits(CreditConfig{Window: 16}), QPConfig{Cumulative: true})
	rqp := NewQP(rep, nil, QPConfig{Cumulative: true})
	mir := NewMirrored(pqp, rqp, MirrorConfig{Mode: ReplicationSync})
	mirroredCycle(pep, rep, mir, t) // warm both QPs' freelists
	if n := testing.AllocsPerRun(200, func() { mirroredCycle(pep, rep, mir, t) }); n != 0 {
		t.Fatalf("mirrored post→mirror→complete: %v allocs/op, want 0", n)
	}
}

func BenchmarkQPPostCompleteRead(b *testing.B) {
	ep := &fakeEndpoint{}
	qp := NewQP(ep, NewCredits(CreditConfig{Window: 16}), QPConfig{TokenIndex: true})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		psn := ep.psn
		qp.PostRead(1, 0, 128, 1, CreditTry)
		qp.CompleteExact(psn)
	}
}

func BenchmarkQPPostAckFetchAdd(b *testing.B) {
	ep := &fakeEndpoint{}
	qp := NewQP(ep, NewCredits(CreditConfig{Window: 16}), QPConfig{Cumulative: true})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		psn := ep.psn
		qp.PostFetchAdd(0, 1)
		qp.AckCumulative(psn)
	}
}

// BenchmarkQPMirroredPostComplete is the replicated analogue of the FAA
// cycle: every post shadowed onto a replica QP, both acks settling the
// journal entry.
func BenchmarkQPMirroredPostComplete(b *testing.B) {
	pep, rep := &fakeEndpoint{}, &fakeEndpoint{}
	pqp := NewQP(pep, NewCredits(CreditConfig{Window: 16}), QPConfig{Cumulative: true})
	rqp := NewQP(rep, nil, QPConfig{Cumulative: true})
	m := NewMirrored(pqp, rqp, MirrorConfig{Mode: ReplicationSync})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ppsn, rpsn := pep.psn, rep.psn
		m.PostFetchAdd(0, 1)
		m.primary.AckCumulative(ppsn)
		m.AckPrimary(ppsn)
		m.AckReplica(rpsn)
	}
}

// BenchmarkStripedPostCompleteRead is the striped analogue of the QP READ
// cycle: four shards, one post+complete round-robined across them per op.
func BenchmarkStripedPostCompleteRead(b *testing.B) {
	eps := make([]*fakeEndpoint, 4)
	qps := make([]*QP, 4)
	for i := range qps {
		eps[i] = &fakeEndpoint{}
		qps[i] = NewQP(eps[i], NewCredits(CreditConfig{Window: 16}), QPConfig{TokenIndex: true})
	}
	s := NewStriped(qps, StripeConfig{EntrySize: 128})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key := uint64(i % 4)
		psn := eps[key].psn
		s.PostRead(key, 128, 1, CreditTry)
		s.Shard(int(key)).CompleteExact(psn)
	}
}

// BenchmarkStripedFetchAddFanout measures the striped FAA hot path as the
// state store runs it: post on the key's home shard at its striped offset,
// cumulative ack there.
func BenchmarkStripedFetchAddFanout(b *testing.B) {
	eps, s := stripedBed(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key := uint64(i % 4)
		psn := eps[key].psn
		s.Shard(s.ShardOf(key)).PostFetchAdd(s.Offset(key), 1)
		s.Shard(int(key)).AckCumulative(psn)
	}
}

func BenchmarkQPReadResponseDispatch(b *testing.B) {
	ep := &fakeEndpoint{}
	qp := NewQP(ep, NewCredits(CreditConfig{Window: 16}), QPConfig{TokenIndex: true})
	payload := make([]byte, 1024)
	first := &wire.Packet{BTH: wire.BTH{Opcode: wire.OpReadResponseFirst}, Payload: payload}
	last := &wire.Packet{BTH: wire.BTH{Opcode: wire.OpReadResponseLast}, Payload: payload}
	b.SetBytes(2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		psn := ep.psn
		qp.PostRead(1, 0, 2048, 2, CreditTry)
		first.BTH.PSN = psn
		qp.ReadResponse(first)
		last.BTH.PSN = (psn + 1) & PSNMask
		qp.ReadResponse(last)
	}
}
