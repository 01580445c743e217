package verbs

// Mirrored posting: one logical queue shadow-posting to a replica server.
//
// The failover engine can rebind a QP to a standby, but §7's concession
// stands: state stored only on the dead primary is gone. MirroredQP closes
// that gap at the transport layer — every Fetch-and-Add posted through it is
// also posted to a second server's QP, and a bounded journal
// remembers what the replica has not yet acknowledged so a promotion can
// replay the difference before the shard rebinds. Two modes span the
// consistency/throughput trade (Cascone et al.'s state-access relaxation
// knob, applied to replication):
//
//   - Sync: a request is settled only when both the primary and the replica
//     acknowledged it. The journal never declares loss; on a primary crash
//     the replica is byte-exact up to the journal replay.
//   - Async: the primary ack alone settles the caller's view; the replica
//     may lag up to MaxLag journaled requests. Entries pushed past the
//     bound are declared lost — counted, and surfaced as typed
//     CQReplicaLost completions on the primary QP — and the anti-entropy
//     scrubber is the repair path for whatever the declaration got wrong.
//
// The journal is a preallocated ring of entries, so the
// post→mirror→complete cycle allocates nothing.
// Replica acknowledgements are matched by EXACT mirror PSN, not
// cumulatively: a cumulative mark would silently absorb requests the
// replica never saw (dropped during a replica blip) and corrupt the loss
// accounting that E13 pins.

import "math/bits"

// ReplicationMode selects how a mirrored post completes.
type ReplicationMode uint8

const (
	// ReplicationOff: no mirroring; the baseline single-copy behavior.
	ReplicationOff ReplicationMode = iota
	// ReplicationSync: settle on both acks; no declared loss.
	ReplicationSync
	// ReplicationAsync: settle on the primary ack; replica lag bounded by
	// MaxLag, overflow declared lost with typed CQReplicaLost completions.
	ReplicationAsync
)

// String names the mode for diagnostics and experiment tables.
func (m ReplicationMode) String() string {
	switch m {
	case ReplicationSync:
		return "Sync"
	case ReplicationAsync:
		return "Async"
	}
	return "Off"
}

// MirrorConfig fixes a mirrored QP's replication discipline.
type MirrorConfig struct {
	// Mode is the replication mode (Sync or Async; Off means "do not build
	// a MirroredQP at all" and is rejected).
	Mode ReplicationMode
	// MaxLag bounds un-acknowledged journal entries in Async mode; pushing
	// past it declares the oldest unsettled entries lost. 0 = 64.
	MaxLag int
}

func (c MirrorConfig) withDefaults() MirrorConfig {
	if c.MaxLag <= 0 {
		c.MaxLag = 64
	}
	return c
}

// mirrorJournal is the ring capacity in entries. A full ring force-settles
// its head (declaring it lost if unacknowledged).
const mirrorJournal = 256

// MirrorLagBuckets is the number of log2 replica-lag histogram buckets.
const MirrorLagBuckets = 16

// LagHist is an allocation-free log2 histogram of replica lag (unsettled
// journal entries), sampled at every mirrored post. Bucket i counts samples
// whose lag has bit length i; bucket 0 is a fully caught-up replica.
type LagHist struct {
	Buckets [MirrorLagBuckets]int64
	Count   int64
	Max     int64
}

// Observe records one lag sample.
func (h *LagHist) Observe(lag int) {
	v := max(int64(lag), 0)
	h.Buckets[min(bits.Len64(uint64(v)), MirrorLagBuckets-1)]++
	h.Count++
	h.Max = max(h.Max, v)
}

// Add returns the element-wise sum of h and o (Max takes the max).
func (h LagHist) Add(o LagHist) LagHist {
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
	h.Count += o.Count
	h.Max = max(h.Max, o.Max)
	return h
}

// MirrorStats are one mirrored QP's replication counters. The struct is
// flat and comparable so aggregate snapshots can embed it.
type MirrorStats struct {
	// MirroredWrites stays 0: the mirror journals only Fetch-and-Adds. It is
	// kept because the benchmark and E10's results line still print it;
	// ROADMAP item 11 retires it.
	MirroredWrites int64
	MirroredFAAs   int64   // Fetch-and-Adds shadow-posted to the replica's wire
	ReplicaAcked   int64   // journal entries acknowledged by the replica (exact PSN)
	BothAcked      int64   // entries settled with both primary and replica acks (Sync's guarantee)
	ReplicaLost    int64   // entries declared lost (lag bound, ring overflow)
	LostDelta      int64   // summed FAA deltas of declared-lost entries (loss upper bound)
	Replayed       int64   // entries re-posted into the replica by a promotion
	Promotions     int64   // times Promote ran
	Lag            LagHist // replica lag sampled at every mirrored post
}

// Add returns the element-wise sum of s and o.
func (s MirrorStats) Add(o MirrorStats) MirrorStats {
	s.MirroredWrites += o.MirroredWrites
	s.MirroredFAAs += o.MirroredFAAs
	s.ReplicaAcked += o.ReplicaAcked
	s.BothAcked += o.BothAcked
	s.ReplicaLost += o.ReplicaLost
	s.LostDelta += o.LostDelta
	s.Replayed += o.Replayed
	s.Promotions += o.Promotions
	s.Lag = s.Lag.Add(o.Lag)
	return s
}

// mirrorEntry is one journaled Fetch-and-Add: enough to match both ack
// streams and to replay the request into the replica.
type mirrorEntry struct {
	offset  int
	delta   uint64
	ppsn    uint32 // primary-side PSN (cumulative ack matching)
	rpsn    uint32 // replica-side PSN (exact ack matching; valid iff rposted)
	rposted bool   // reached the replica's wire at least once
	packed  bool   // primary acknowledged
	racked  bool   // replica acknowledged
	lost    bool   // declared lost; settles without a replica ack
}

func (e *mirrorEntry) settled(promoted bool) bool {
	return (e.packed || promoted) && (e.racked || e.lost)
}

// MirroredQP shadow-posts Fetch-and-Add work requests to a replica server's QP.
// It wraps — never replaces — the primary QP: READ completion, credits,
// retransmit, and failover stay on the primary; the mirror adds only the
// replica post, the journal, and the loss/lag accounting. Not safe for
// concurrent use; the simulation is single-threaded per engine.
type MirroredQP struct {
	primary *QP
	replica *QP
	cfg     MirrorConfig

	ring     []mirrorEntry
	head, n  int
	promoted bool

	Stats MirrorStats
}

// NewMirrored builds a mirrored QP: posts go to primary as before and are
// shadowed onto replica. replica is typically a credit-less cumulative QP on
// the replica server's channel (the mirror must never backpressure the
// primary's admission window).
func NewMirrored(primary, replica *QP, cfg MirrorConfig) *MirroredQP {
	if primary == nil || replica == nil {
		panic("verbs: mirrored QP needs a primary and a replica")
	}
	if cfg.Mode != ReplicationSync && cfg.Mode != ReplicationAsync {
		panic("verbs: mirrored QP needs ReplicationSync or ReplicationAsync")
	}
	cfg = cfg.withDefaults()
	return &MirroredQP{
		primary: primary,
		replica: replica,
		cfg:     cfg,
		ring:    make([]mirrorEntry, mirrorJournal),
	}
}

// MaxLag returns the effective lag bound.
func (m *MirroredQP) MaxLag() int { return m.cfg.MaxLag }

// Promoted reports whether Promote has run (the mirror is retired and posts
// delegate straight to the primary, which the caller rebound to the
// replica's channel).
func (m *MirroredQP) Promoted() bool { return m.promoted }

// Lag reports journal entries the replica has not acknowledged — the
// replication lag the supervisor's pressure ladder watches.
func (m *MirroredQP) Lag() int {
	lag := 0
	for i := 0; i < m.n; i++ {
		e := &m.ring[(m.head+i)%len(m.ring)]
		if !e.racked && !e.lost {
			lag++
		}
	}
	return lag
}

// slot returns the ring index of live entry i (0 = oldest).
func (m *MirroredQP) slot(i int) int { return (m.head + i) % len(m.ring) }

// push appends a fresh entry, force-settling the head if the ring is full.
func (m *MirroredQP) push() *mirrorEntry {
	if m.n == len(m.ring) {
		m.declareLost(&m.ring[m.head])
		m.pop()
	}
	s := m.slot(m.n)
	m.n++
	e := &m.ring[s]
	*e = mirrorEntry{}
	return e
}

// pop drops the head entry (the caller has settled or declared it).
func (m *MirroredQP) pop() {
	m.head = (m.head + 1) % len(m.ring)
	m.n--
}

// declareLost marks an unsettled entry lost: counted, its FAA delta added
// to the loss upper bound, and a typed CQReplicaLost completion delivered
// on the primary QP (token = the entry's offset, PSN = its mirror PSN) so
// the supervisor's error-rate ladder sees it.
func (m *MirroredQP) declareLost(e *mirrorEntry) {
	if e.settled(m.promoted) || e.lost {
		return
	}
	e.lost = true
	m.Stats.ReplicaLost++
	m.Stats.LostDelta += int64(e.delta)
	m.primary.CompleteError(OpFetchAdd, uint64(e.offset), e.rpsn, CQReplicaLost)
}

// drain pops every settled entry off the head, counting Sync's both-acked
// guarantee as it goes.
func (m *MirroredQP) drain() {
	for m.n > 0 {
		e := &m.ring[m.head]
		if !e.settled(m.promoted) {
			return
		}
		if e.racked && !e.lost {
			m.Stats.BothAcked++
		}
		m.pop()
	}
}

// enforceLag declares the oldest unsettled entries lost until the replica
// lag is back under MaxLag (Async mode only; Sync never declares loss).
func (m *MirroredQP) enforceLag() {
	if m.cfg.Mode != ReplicationAsync {
		return
	}
	for lag := m.Lag(); lag > m.cfg.MaxLag; lag-- {
		for i := 0; i < m.n; i++ {
			e := &m.ring[m.slot(i)]
			if !e.racked && !e.lost {
				m.declareLost(e)
				break
			}
		}
	}
	m.drain()
}

// PostFetchAdd posts a Fetch-and-Add on the primary and shadows it onto the
// replica, journaling it until both sides settle. False means the primary
// refused (credit/egress) and nothing was sent anywhere.
func (m *MirroredQP) PostFetchAdd(offset int, delta uint64) bool {
	if m.promoted {
		return m.primary.PostFetchAdd(offset, delta)
	}
	ppsn := m.primary.Endpoint().PSN()
	if !m.primary.PostFetchAdd(offset, delta) {
		return false
	}
	e := m.push()
	e.offset, e.delta, e.ppsn = offset, delta, ppsn
	rpsn := m.replica.Endpoint().PSN()
	if m.replica.PostFetchAdd(offset, delta) {
		e.rposted, e.rpsn = true, rpsn
		m.Stats.MirroredFAAs++
	}
	m.Stats.Lag.Observe(m.Lag())
	m.enforceLag()
	return true
}

// AckPrimary marks every journal entry at or before psn (24-bit ring
// order) as primary-acknowledged. The caller invokes it alongside the
// primary QP's own AckCumulative when an ack arrives from the primary.
func (m *MirroredQP) AckPrimary(psn uint32) {
	for i := 0; i < m.n; i++ {
		e := &m.ring[m.slot(i)]
		if !e.packed && !PSNAfter(e.ppsn, psn) {
			e.packed = true
		}
	}
	m.drain()
}

// AckReplica consumes a replica-side acknowledgement: entries whose mirror
// PSN matches psn EXACTLY are marked replica-acknowledged (cumulative
// marking would absorb requests a replica blip dropped and corrupt the loss
// accounting), and un-posted journal entries get a retry onto the replica's
// wire. The replica QP's own FIFO is drained cumulatively as usual. Returns
// the number of entries acknowledged.
func (m *MirroredQP) AckReplica(psn uint32) int {
	m.replica.AckCumulative(psn)
	acked := 0
	for i := 0; i < m.n; i++ {
		e := &m.ring[m.slot(i)]
		if e.rposted && !e.racked && e.rpsn == psn {
			e.racked = true
			m.Stats.ReplicaAcked++
			acked++
		}
	}
	m.postUnposted()
	m.drain()
	return acked
}

// postUnposted re-offers journal entries that never reached the replica's
// wire (egress refused at post time, or the replica was down) and returns
// how many the replica took.
func (m *MirroredQP) postUnposted() int {
	posted := 0
	for i := 0; i < m.n; i++ {
		e := &m.ring[m.slot(i)]
		if e.rposted || e.lost {
			continue
		}
		rpsn := m.replica.Endpoint().PSN()
		if m.replica.PostFetchAdd(e.offset, e.delta) {
			e.rposted, e.rpsn = true, rpsn
			m.Stats.MirroredFAAs++
			posted++
		}
	}
	return posted
}

// Promote retires the mirror after a primary crash: every journal entry the
// replica never saw is replayed onto the replica's wire, the journal is
// cleared, and future posts delegate straight to the primary QP — which the
// caller rebinds to the replica's channel immediately after. Entries that
// were posted but never acknowledged are NOT replayed (the replica may hold
// them; a blind replay would double-apply FAAs) — the anti-entropy scrubber
// repairs that residue. Returns the number of entries replayed.
func (m *MirroredQP) Promote() int {
	if m.promoted {
		return 0
	}
	m.promoted = true
	m.Stats.Promotions++
	replayed := m.postUnposted()
	m.Stats.Replayed += int64(replayed)
	// The journal's purpose — replay on promotion — is spent; whatever the
	// replay could not recover is the scrubber's to repair.
	m.head, m.n = 0, 0
	return replayed
}
