package verbs

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"gem/internal/sim"
	"gem/internal/wire"
)

// clockEP is a fakeEndpoint reading a clock shared with its siblings, so a
// QP retargeted between endpoints keeps one monotone notion of time.
type clockEP struct {
	fakeEndpoint
	clock *sim.Time
}

func (e *clockEP) Now() sim.Time { return *e.clock }

// scanExpired is the brute-force reference for AppendExpired: every live
// WQE in the token index older than Timeout, sorted.
func scanExpired(q *QP) []uint64 {
	var out []uint64
	now := q.ep.Now()
	for _, w := range q.byToken {
		if now.Sub(w.Issued) > q.cfg.Timeout {
			out = append(out, w.Token)
		}
	}
	slices.Sort(out)
	return out
}

// liveTokens lists the token index, sorted.
func liveTokens(q *QP) []uint64 {
	var out []uint64
	for tok := range q.byToken {
		out = append(out, tok)
	}
	slices.Sort(out)
	return out
}

// TestAppendExpiredMatchesScan drives random post / response / repost /
// retarget / abort / clock sequences, with many same-nanosecond posts and
// WQEs recycled through the freelist, and checks after every step that the
// issue-ordered expiry walk returns exactly what a full scan of the live
// WQEs does.
func TestAppendExpiredMatchesScan(t *testing.T) {
	const timeout = 10 * sim.Microsecond
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var clock sim.Time
		ep := &clockEP{clock: &clock}
		cr := NewCredits(CreditConfig{Window: 12})
		q := NewQP(ep, cr, QPConfig{TokenIndex: true, Timeout: timeout})
		var got []uint64
		for step := 0; step < 3000; step++ {
			live := liveTokens(q)
			pick := func() (uint64, bool) {
				if len(live) == 0 {
					return 0, false
				}
				return live[rng.Intn(len(live))], true
			}
			ep.fail = rng.Intn(8) == 0
			switch r := rng.Intn(100); {
			case r < 35: // post a token not in flight
				if tok := uint64(rng.Intn(24)); !q.TokenPending(tok) {
					q.PostRead(tok, int(tok)*64, 64, uint32(1+rng.Intn(2)), CreditTry)
				}
			case r < 55: // answer a live READ, or send a stale answer
				psn := uint32(rng.Intn(64))
				if tok, ok := pick(); ok && rng.Intn(4) != 0 {
					psn = q.byToken[tok].PSN
				}
				pkt := &wire.Packet{BTH: wire.BTH{Opcode: wire.OpReadResponseOnly, PSN: psn}}
				q.ReadResponse(pkt)
			case r < 65: // repost one live READ
				if tok, ok := pick(); ok {
					q.Repost(tok)
				}
			case r < 72: // the retry discipline: repost everything expired
				got = q.AppendExpired(got[:0])
				slices.Sort(got)
				for _, tok := range got {
					q.Repost(tok)
				}
			case r < 75: // fail over to a fresh endpoint and window
				q.Abort()
				ep = &clockEP{clock: &clock}
				q.Rebind(ep, NewCredits(CreditConfig{Window: 12}))
				ep.fail = rng.Intn(8) == 0
			case r < 76:
				q.Abort()
			default: // advance time: often not at all, sometimes past Timeout
				switch rng.Intn(4) {
				case 0:
				case 1:
					clock = clock.Add(sim.Duration(rng.Intn(1000)))
				case 2:
					clock = clock.Add(sim.Duration(rng.Intn(int(timeout))))
				default:
					clock = clock.Add(timeout + sim.Duration(rng.Intn(int(timeout))))
				}
			}
			got = q.AppendExpired(got[:0])
			slices.Sort(got)
			if want := scanExpired(q); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: AppendExpired %v, scan %v", seed, step, got, want)
			}
			// Compaction keeps the FIFO within twice the window (which
			// bounds live WQEs) plus slack.
			if n := q.issued.Len(); n > 2*12+9 {
				t.Fatalf("seed %d step %d: issue FIFO holds %d entries", seed, step, n)
			}
		}
	}
}

// TestWQEFitsSizeClass: the issue stamp must not push a WQE past the
// 64-byte allocation size class (the next class is 80 bytes).
func TestWQEFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(WQE{}); n > 64 {
		t.Fatalf("WQE is %d bytes, want <= 64", n)
	}
}

// expiryBed is a retry-mode QP with a full window of READs in flight.
func expiryBed(t testing.TB) (*fakeEndpoint, *QP) {
	ep := &fakeEndpoint{}
	qp := NewQP(ep, NewCredits(CreditConfig{Window: 16}), QPConfig{TokenIndex: true, Timeout: sim.Microsecond})
	for tok := uint64(0); tok < 16; tok++ {
		if !qp.PostRead(tok, int(tok)*64, 64, 1, CreditTry) {
			t.Fatal("post refused")
		}
	}
	return ep, qp
}

// BenchmarkQPAppendExpiredNone is the common case on every departure: a
// full window in flight and nothing expired.
func BenchmarkQPAppendExpiredNone(b *testing.B) {
	_, qp := expiryBed(b)
	buf := make([]uint64, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf = qp.AppendExpired(buf[:0]); len(buf) != 0 {
			b.Fatal("nothing should have expired")
		}
	}
}

// expireAndRepost expires the whole window and reposts it, the retry
// path's worst case.
func expireAndRepost(ep *fakeEndpoint, qp *QP, buf []uint64, t testing.TB) []uint64 {
	ep.now = ep.now.Add(2 * sim.Microsecond)
	buf = qp.AppendExpired(buf[:0])
	for _, tok := range buf {
		if !qp.Repost(tok) {
			t.Fatal("repost refused")
		}
	}
	if len(buf) != 16 {
		t.Fatalf("%d expired, want 16", len(buf))
	}
	return buf
}

func TestExpiryZeroAlloc(t *testing.T) {
	ep, qp := expiryBed(t)
	buf := expireAndRepost(ep, qp, make([]uint64, 0, 16), t) // size the issue FIFO
	if n := testing.AllocsPerRun(200, func() { buf = expireAndRepost(ep, qp, buf, t) }); n != 0 {
		t.Fatalf("expire+repost: %v allocs/op, want 0", n)
	}
}

func BenchmarkQPAppendExpiredRepost(b *testing.B) {
	ep, qp := expiryBed(b)
	buf := expireAndRepost(ep, qp, make([]uint64, 0, 16), b) // size the issue FIFO
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = expireAndRepost(ep, qp, buf, b)
	}
}
