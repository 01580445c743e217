// Package verbs is the shared RDMA transport core beneath the three
// remote-memory primitives: a verbs-style work-queue / completion-queue
// layer that owns the full request lifecycle.
//
// The paper's primitives — packet buffer, lookup table, state store — are
// all "craft a RoCEv2 request, match the response, recover on loss", and
// real RDMA exposes exactly one abstraction for that contract: post a work
// request to a queue pair, consume a completion from a completion queue.
// Before this package each primitive re-implemented the contract privately
// (its own outstanding-op table, PSN map, credit plumbing and stale-response
// handling); now they post through a QP and the transport does the
// bookkeeping once:
//
//   - Post* allocates PSNs (via the Endpoint, i.e. the channel's PSN
//     register), applies the per-post credit policy, injects the frame, and
//     tracks a work-queue entry (WQE);
//   - the completion path matches responses by PSN — exactly (READs) or
//     cumulatively (FAA ACK streams) — detects stale and duplicate
//     completions after a retry, reassembles multi-packet READ responses,
//     and releases exactly one credit per completion;
//   - the expiry path (ReapExpired / AppendExpired + Repost) implements the
//     two recovery disciplines the primitives need: release-and-forget for
//     idempotent-at-the-caller operations, and repost-in-place for READs the
//     caller must eventually satisfy.
//
// The QP deliberately does not own frame buffers: Endpoint.Read/Write/
// FetchAdd build and hand pooled frames to the fabric synchronously, so no
// WQE ever holds a pooled frame across events. (The Retransmitter is the
// one component that retains frames — as the reliable-mode poster behind
// PostFetchAdd — and its masters are tracked by its own window, not by
// WQEs; see DESIGN.md §9 for the ownership rules.)
package verbs

import (
	"gem/internal/fifo"
	"gem/internal/sim"
	"gem/internal/wire"
)

// Endpoint is the wire beneath a QP: the subset of the channel the
// transport needs. Read/Write/FetchAdd consume PSNs, build pooled request
// frames and inject them toward the memory server; PSN peeks at the next
// sequence number so the transport can record it before a post consumes it.
type Endpoint interface {
	PSN() uint32
	Read(offset, n int, respPkts uint32) bool
	Write(offset int, payload []byte) bool
	FetchAdd(offset int, delta uint64) (uint32, bool)
	Now() sim.Time
	Schedule(after sim.Duration, fn func())
}

// ReliablePoster is the reliable send path (the core Retransmitter): posts
// are tracked and retransmitted by its own window until acknowledged, so
// the QP's expiry machinery stays off — nothing is ever lost, only late.
type ReliablePoster interface {
	CanSend() bool
	FetchAdd(offset int, delta uint64) uint32
}

// OpType labels a work request.
type OpType uint8

const (
	OpRead OpType = iota
	OpWrite
	OpFetchAdd
)

// CreditMode is the per-post credit policy. The three primitives meter the
// same window three different ways, and the distinction is observable (the
// credit counters feed the E10 overload pins), so the policy is part of the
// post, not of the QP.
type CreditMode uint8

const (
	// CreditTry takes a credit or fails the post: no credit, no frame. A
	// post that then fails at the egress returns its credit. (Packet-buffer
	// READs.)
	CreditTry CreditMode = iota
	// CreditAdmit consumes the caller's reservation — or try-acquires,
	// counting a refusal — before issuing; a refusal cancels the post. The
	// WQE is tracked whether or not a window exists. (Recirculation-mode
	// lookup fetches.)
	CreditAdmit
	// CreditLoose issues unconditionally and tracks the WQE only when a
	// credit (reservation or fresh acquire) is available: the request is
	// stateless at the switch and the window merely meters it.
	// (Deposit-mode lookup fetches.)
	CreditLoose
)

// CQStatus classifies what a response packet produced.
type CQStatus uint8

const (
	// CQNone: consumed with no completion (reassembly in progress, or an
	// ignorable packet).
	CQNone CQStatus = iota
	// CQDone: a work request completed; the CQE and payload are valid.
	CQDone
	// CQStale: the response matched no live WQE (duplicate after a retry,
	// or an answer to a reaped request).
	CQStale
	// CQNakPSN: the responder NAKed with a PSN-sequence syndrome — it saw a
	// gap in the request stream. The retransmitter resyncs; the CQE reports
	// the fault.
	CQNakPSN
	// CQNakRKey: the responder NAKed with a remote-access or remote-op
	// syndrome — the request itself was rejected (bad rkey, bad opcode).
	CQNakRKey
	// CQRetryExhausted: the retransmitter's retry budget ran out for the
	// oldest unacked request; recovery now needs failover or a reconnect.
	CQRetryExhausted
	// CQCreditRefused: the admission window cancelled the post.
	CQCreditRefused
	// CQFailoverExhausted: failover wanted to switch servers and found no
	// live standby — every replica is considered dead.
	CQFailoverExhausted
	// CQCanceled: the WQE was abandoned by Abort (rebind or teardown);
	// nothing will ever answer it.
	CQCanceled
	// CQReplicaLost: an async mirror dropped a journaled request because the
	// replica fell further behind than the configured lag bound — the primary
	// committed it but the replica never will (until a scrub repairs it).
	CQReplicaLost
)

// String names the status for diagnostics and experiment tables.
func (s CQStatus) String() string {
	switch s {
	case CQNone:
		return "None"
	case CQDone:
		return "OK"
	case CQStale:
		return "Stale"
	case CQNakPSN:
		return "NAK-PSN"
	case CQNakRKey:
		return "NAK-RKey"
	case CQRetryExhausted:
		return "RetryExhausted"
	case CQCreditRefused:
		return "CreditRefused"
	case CQFailoverExhausted:
		return "FailoverExhausted"
	case CQCanceled:
		return "Canceled"
	case CQReplicaLost:
		return "ReplicaLost"
	}
	return "Unknown"
}

// CQE is a completion-queue entry: the identity of the work request a
// response satisfied.
type CQE struct {
	Op    OpType
	Token uint64
	PSN   uint32
}

// WQE is a work-queue entry: one in-flight request. Offset/Len/RespPkts are
// retained so Repost can re-issue the identical request with fresh PSNs.
// Op sits beside the flags so the struct packs into one 64-byte size class.
type WQE struct {
	Token    uint64
	Offset   int
	Len      int
	RespPkts uint32
	PSN      uint32
	Issued   sim.Time
	Op       OpType

	hasCredit bool   // holds one credit, released exactly once at retire
	queued    bool   // resident in the FIFO (freelisted only when popped)
	done      bool   // retired; lazily removed from the FIFO
	seq       uint64 // stamp of the latest issue (retry-mode issue order)
	next      *WQE   // freelist link
}

// issueRef is one issue of a READ in a retry-mode QP's issue-ordered FIFO:
// the WQE and the stamp it was given at that issue. Issued cannot tell two
// issues apart (two can share a nanosecond, and WQEs are recycled through
// the freelist), but the per-QP stamp can: the entry is live only while its
// WQE is unretired and still carries the stamp. A retire, a repost (fresh
// stamp) or a recycle leaves the entry stale, to be dropped lazily.
type issueRef struct {
	w   *WQE
	seq uint64
}

func (e issueRef) live() bool { return !e.w.done && e.w.seq == e.seq }

// QPConfig fixes a queue pair's completion and expiry discipline.
type QPConfig struct {
	// Cumulative selects FIFO-ordered cumulative completion (an ACK at PSN
	// p retires every WQE at or before p) instead of exact PSN matching.
	Cumulative bool
	// TokenIndex maintains a token→WQE index: TokenPending answers "is this
	// token in flight" and Repost re-issues by token. Tokens must be unique
	// among live WQEs. Without Reap this is the retry mode: the QP also
	// keeps its READs in issue order for AppendExpired and Retarget.
	TokenIndex bool
	// Reap enables the FIFO-ordered expiry reaper: ReapExpired releases the
	// credit of any WQE older than Timeout and discards it (the caller's
	// recovery is to simply issue again later).
	Reap bool
	// Timeout is the age at which a WQE is expiry-eligible — for ReapExpired
	// (Reap mode) or AppendExpired/Repost (retry mode). 0 = never.
	Timeout sim.Duration
	// OnExpired is invoked for each WQE the reaper discards, after its
	// credit is released and its tracking removed.
	OnExpired func(op OpType, token uint64)
	// Kick, when set, is scheduled KickDelay after every successful READ
	// post or repost — the progress guarantee when a response is lost and no
	// other event would retrigger the caller's issue loop.
	Kick      func()
	KickDelay sim.Duration
}

// QP is one queue pair: the per-channel work-queue/completion-queue state.
// Not safe for concurrent use; the simulation is single-threaded per engine.
type QP struct {
	ep      Endpoint
	credits *Credits
	rel     ReliablePoster
	cfg     QPConfig

	byPSN   map[uint32]*WQE // exact-match index (nil in cumulative mode)
	byToken map[uint64]*WQE // token index (nil unless TokenIndex)
	queue   fifo.Queue[*WQE]
	free    *WQE

	// Retry mode only: every issue of a READ in issue order (so in Issued
	// order), each stamped from seq. Repost appends a fresh entry, which
	// moves the WQE to the back; stale entries are dropped lazily.
	issued  fifo.Queue[issueRef]
	seq     uint64
	live    int  // WQEs posted and not yet retired
	reserve bool // one admission credit reserved, not yet bound to a post

	// Multi-packet READ response reassembly (First/Middle/Last): cur is the
	// WQE being reassembled, partial the accumulated payload.
	cur     *WQE
	partial []byte

	// Doorbell pending ring (nil unless EnableDoorbell); see doorbell.go.
	db *doorbell

	Stats Stats
}

// NewQP binds a queue pair to ep, metered by credits (nil = no admission
// window). cfg fixes the completion discipline.
func NewQP(ep Endpoint, credits *Credits, cfg QPConfig) *QP {
	q := &QP{ep: ep, credits: credits, cfg: cfg}
	if !cfg.Cumulative {
		q.byPSN = make(map[uint32]*WQE)
	}
	if cfg.TokenIndex {
		q.byToken = make(map[uint64]*WQE)
	}
	return q
}

// Credits returns the QP's admission window (nil when unmetered).
func (q *QP) Credits() *Credits { return q.credits }

// Endpoint returns the wire beneath the QP. Mirroring layers use it to peek
// the next PSN before delegating a post.
func (q *QP) Endpoint() Endpoint { return q.ep }

// SetReliable routes future PostFetchAdd calls through r (reliable mode);
// loss recovery moves to r's retransmit window.
func (q *QP) SetReliable(r ReliablePoster) { q.rel = r }

// Pending reports WQEs posted and not yet completed or expired.
func (q *QP) Pending() int { return q.live }

// CanPost reports whether a credit is available, without counting a
// refusal. Issue loops use it as their continuation condition.
func (q *QP) CanPost() bool { return q.credits == nil || q.credits.CanAcquire() }

// TokenPending reports whether a WQE with this token is in flight
// (TokenIndex QPs only).
func (q *QP) TokenPending(token uint64) bool {
	_, ok := q.byToken[token]
	return ok
}

// TryReserve takes one admission credit ahead of a post (a later CreditAdmit
// or CreditLoose post binds it), counting a refusal against op. With no
// window it trivially succeeds.
func (q *QP) TryReserve(op OpType) bool {
	if q.credits == nil || q.reserve {
		return true
	}
	if !q.credits.TryAcquire() {
		q.refused(op)
		return false
	}
	q.reserve = true
	return true
}

// DropReservation returns a reserved credit that never bound to a post
// (e.g. the request turned out to be malformed).
func (q *QP) DropReservation() {
	if q.reserve {
		q.reserve = false
		q.credits.Release()
	}
}

// admit consumes the reservation or takes a fresh credit. took reports
// whether a credit is actually held; ok whether the post may proceed.
func (q *QP) admit(op OpType) (took, ok bool) {
	if q.credits == nil {
		return false, true
	}
	if q.reserve {
		q.reserve = false
		return true, true
	}
	//gem:credit-ok admit hands the credit to the posting path; completion or the reaper releases it
	if q.credits.TryAcquire() {
		return true, true
	}
	q.refused(op)
	return false, false
}

// refused records an admission-window refusal: the per-op counter plus the
// typed CreditRefused error class.
func (q *QP) refused(op OpType) {
	q.statsFor(op).Refused++
	q.Stats.Errors.CreditRefused++
}

// get pops a WQE from the freelist (or allocates on a cold start).
func (q *QP) get() *WQE {
	if w := q.free; w != nil {
		q.free = w.next
		*w = WQE{}
		return w
	}
	return &WQE{}
}

func (q *QP) put(w *WQE) {
	w.next = q.free
	q.free = w
}

func (q *QP) statsFor(op OpType) *OpStats {
	switch op {
	case OpWrite:
		return &q.Stats.Write
	case OpFetchAdd:
		return &q.Stats.FetchAdd
	}
	return &q.Stats.Read
}

// track records a posted READ as an in-flight WQE.
func (q *QP) track(token uint64, offset, n int, respPkts, psn uint32, hasCredit bool) {
	w := q.get()
	w.Op, w.Token = OpRead, token
	w.Offset, w.Len, w.RespPkts = offset, n, respPkts
	w.PSN = psn
	w.Issued = q.ep.Now()
	w.hasCredit = hasCredit
	q.byPSN[psn] = w
	if q.cfg.TokenIndex {
		q.byToken[token] = w
		if !q.cfg.Reap {
			q.stamp(w)
		}
	}
	if q.cfg.Reap && hasCredit {
		w.queued = true
		q.queue.Push(w)
	}
	q.live++
}

// stamp appends w's current issue to the issue-ordered FIFO under a fresh
// stamp. Stale entries pinned behind a live head are compacted away once
// they outnumber the live ones, so the ring stays O(live) (amortized O(1)).
func (q *QP) stamp(w *WQE) {
	q.dropStaleIssues()
	if q.issued.Len() >= 2*q.live+8 {
		for n := q.issued.Len(); n > 0; n-- {
			if e := q.issued.Pop(); e.live() {
				q.issued.Push(e)
			}
		}
	}
	q.seq++
	w.seq = q.seq
	q.issued.Push(issueRef{w, q.seq})
}

// dropStaleIssues pops stale entries off the head of the issue FIFO.
func (q *QP) dropStaleIssues() {
	for q.issued.Len() > 0 && !q.issued.Peek().live() {
		q.issued.Pop()
	}
}

// retire marks a WQE complete: tracking removed, credit released exactly
// once. The caller freelists it (immediately, or when the FIFO pops it).
func (q *QP) retire(w *WQE) {
	w.done = true
	if q.byPSN != nil {
		delete(q.byPSN, w.PSN)
	}
	if q.cfg.TokenIndex {
		delete(q.byToken, w.Token)
	}
	if w.hasCredit {
		q.credits.Release()
	}
	q.live--
}

func (q *QP) scheduleKick() {
	if q.cfg.Kick != nil {
		q.ep.Schedule(q.cfg.KickDelay, q.cfg.Kick)
	}
}

// PostRead posts a READ work request under the given credit policy: PSNs
// are recorded, the frame injected, and the WQE tracked for exact-PSN
// completion. It reports whether the request is in flight (CreditTry) or
// was issued (CreditAdmit / CreditLoose; see the mode docs for tracking).
func (q *QP) PostRead(token uint64, offset, n int, respPkts uint32, mode CreditMode) bool {
	switch mode {
	case CreditTry:
		if q.credits != nil && !q.credits.TryAcquire() {
			q.refused(OpRead)
			return false
		}
		psn := q.ep.PSN()
		if !q.ep.Read(offset, n, respPkts) {
			if q.credits != nil {
				q.credits.Release()
			}
			return false
		}
		q.track(token, offset, n, respPkts, psn, q.credits != nil)
		q.Stats.Read.Posted++
		q.scheduleKick()
		return true

	case CreditAdmit:
		took, ok := q.admit(OpRead)
		if !ok {
			return false
		}
		psn := q.ep.PSN()
		// The issue is deliberate even if the egress refuses the frame:
		// the WQE is tracked and the reaper (or a response to a retry)
		// recovers — self-healing either way.
		q.ep.Read(offset, n, respPkts)
		q.track(token, offset, n, respPkts, psn, took)
		q.Stats.Read.Posted++
		q.scheduleKick()
		return true

	default: // CreditLoose
		psn := q.ep.PSN()
		q.ep.Read(offset, n, respPkts)
		q.Stats.Read.Posted++
		if took, _ := q.admit(OpRead); took {
			q.track(token, offset, n, respPkts, psn, true)
		}
		q.scheduleKick()
		return true
	}
}

// PostWrite posts an unsignaled WRITE: no completion is expected and no WQE
// is tracked (the write is fire-and-forget at the transport; callers
// needing reliability route through the Retransmitter). It reports whether
// the frame reached the egress.
func (q *QP) PostWrite(offset int, payload []byte) bool {
	q.Stats.Write.Posted++
	return q.ep.Write(offset, payload)
}

// PostFetchAdd posts a Fetch-and-Add for cumulative completion. The caller
// has already checked CanPost; the credit is taken after a successful post,
// so a refused frame (egress full, retransmit window full) consumes no
// credit. False means nothing was sent and the caller should stop issuing
// until the next event.
func (q *QP) PostFetchAdd(offset int, delta uint64) bool {
	var psn uint32
	if q.rel != nil {
		if !q.rel.CanSend() {
			return false // retransmit window full; an ACK will retrigger
		}
		psn = q.rel.FetchAdd(offset, delta)
	} else {
		var ok bool
		psn, ok = q.ep.FetchAdd(offset, delta)
		if !ok {
			return false // memory-link egress full; retry on next event
		}
	}
	w := q.get()
	w.Op = OpFetchAdd
	w.PSN = psn
	w.Issued = q.ep.Now()
	if q.credits != nil {
		q.credits.Acquire()
		w.hasCredit = true
	}
	w.queued = true
	q.queue.Push(w)
	q.live++
	q.Stats.FetchAdd.Posted++
	return true
}

// Repost re-issues the READ tracked under token with fresh PSNs, reusing
// the credit the WQE already holds. On an egress refusal the old tracking
// (and PSN mapping) is kept — the caller retries on a later event.
func (q *QP) Repost(token uint64) bool {
	w, ok := q.byToken[token]
	if !ok {
		return false
	}
	psn := q.ep.PSN()
	if !q.ep.Read(w.Offset, w.Len, w.RespPkts) {
		return false
	}
	// After a Retarget the new endpoint's PSN space restarts, so this WQE's
	// stale key may already have been claimed by a sibling's repost — only
	// unmap the old PSN if it still points at us.
	if q.byPSN[w.PSN] == w {
		delete(q.byPSN, w.PSN)
	}
	w.PSN = psn
	w.Issued = q.ep.Now()
	q.byPSN[psn] = w
	if !q.cfg.Reap {
		q.stamp(w)
	}
	q.Stats.Read.Retried++
	q.scheduleKick()
	return true
}

// CompleteExact retires the WQE whose request PSN is psn, releasing its
// credit. A miss (stale or duplicate response, or a packet that is not the
// first of its response) is counted and reported.
func (q *QP) CompleteExact(psn uint32) (CQE, bool) {
	w, ok := q.byPSN[psn]
	if !ok || w.done {
		q.Stats.Read.Stale++
		return CQE{}, false
	}
	cqe := CQE{Op: w.Op, Token: w.Token, PSN: psn}
	q.statsFor(w.Op).Completed++
	q.Stats.Latency.Observe(q.ep.Now().Sub(w.Issued))
	q.retire(w)
	if !w.queued {
		q.put(w)
	}
	return cqe, true
}

// CompleteError delivers a typed error completion: the CQE identifies the
// faulted request (or request stream position, for stream-level faults like
// a NAK), st classifies it, and the matching Stats.Errors counter advances.
// Error completions do not retire WQEs: the retransmitter or failover engine
// that reported the fault still owns recovery of the in-flight work.
func (q *QP) CompleteError(op OpType, token uint64, psn uint32, st CQStatus) CQE {
	cqe := CQE{Op: op, Token: token, PSN: psn}
	switch st {
	case CQNakPSN:
		q.Stats.Errors.NakPSN++
	case CQNakRKey:
		q.Stats.Errors.NakRKey++
	case CQRetryExhausted:
		q.Stats.Errors.RetryExhausted++
	case CQCreditRefused:
		q.Stats.Errors.CreditRefused++
	case CQFailoverExhausted:
		q.Stats.Errors.FailoverExhausted++
	case CQCanceled:
		q.Stats.Errors.Canceled++
	case CQReplicaLost:
		q.Stats.Errors.ReplicaLost++
	}
	return cqe
}

// AckCumulative retires every WQE at or before psn in 24-bit sequence
// space (a cumulative ACK: anything before the echoed PSN was answered, or
// lost and answered later). It returns the number retired.
func (q *QP) AckCumulative(psn uint32) int {
	n := 0
	for q.queue.Len() > 0 {
		w := q.queue.Peek()
		if w.done {
			q.put(q.queue.Pop())
			continue
		}
		if PSNAfter(w.PSN, psn) {
			break
		}
		q.queue.Pop()
		q.statsFor(w.Op).Completed++
		q.Stats.Latency.Observe(q.ep.Now().Sub(w.Issued))
		q.retire(w)
		q.put(w)
		n++
	}
	return n
}

// ReadResponse consumes one READ response packet for an exact-match QP,
// reassembling multi-packet responses (First/Middle/Last) per the RoCE
// segmentation contract: the First/Only packet echoes the request PSN. On
// CQDone the returned payload is the full entry; it aliases transport
// scratch (or the response frame) and is valid only within the current
// event — callers retain by copying.
func (q *QP) ReadResponse(pkt *wire.Packet) (CQE, []byte, CQStatus) {
	switch pkt.BTH.Opcode {
	case wire.OpReadResponseOnly:
		w, ok := q.byPSN[pkt.BTH.PSN]
		if !ok || w.done {
			q.Stats.Read.Stale++
			return CQE{}, nil, CQStale
		}
		cqe := CQE{Op: w.Op, Token: w.Token, PSN: pkt.BTH.PSN}
		q.Stats.Read.Completed++
		q.Stats.Latency.Observe(q.ep.Now().Sub(w.Issued))
		q.retire(w)
		if !w.queued {
			q.put(w)
		}
		return cqe, pkt.Payload, CQDone

	case wire.OpReadResponseFirst:
		w, ok := q.byPSN[pkt.BTH.PSN]
		if !ok || w.done {
			// A stale First also cancels any reassembly in progress: the
			// response stream moved on.
			q.Stats.Read.Stale++
			q.cur = nil
			return CQE{}, nil, CQStale
		}
		q.cur = w
		q.partial = append(q.partial[:0], pkt.Payload...)
		return CQE{}, nil, CQNone

	case wire.OpReadResponseMiddle:
		if q.cur != nil {
			q.partial = append(q.partial, pkt.Payload...)
		}
		return CQE{}, nil, CQNone

	case wire.OpReadResponseLast:
		w := q.cur
		if w == nil {
			return CQE{}, nil, CQNone
		}
		// Reassemble in place and hand out the scratch: the entry is valid
		// until the next response is dispatched, and consumers that retain
		// it copy (PacketBuffer.finishEntry's copy-on-retain). Growing a
		// fresh slice here instead would put an allocation on every
		// multi-packet completion.
		q.partial = append(q.partial, pkt.Payload...)
		entry := q.partial
		q.cur = nil
		if w.done {
			q.Stats.Read.Stale++
			return CQE{}, nil, CQStale
		}
		cqe := CQE{Op: w.Op, Token: w.Token, PSN: w.PSN}
		q.Stats.Read.Completed++
		q.Stats.Latency.Observe(q.ep.Now().Sub(w.Issued))
		q.retire(w)
		if !w.queued {
			q.put(w)
		}
		return cqe, entry, CQDone
	}
	return CQE{}, nil, CQNone
}

// ReapExpired walks the FIFO releasing the credit of every WQE older than
// Timeout (Reap QPs): the request or its response was lost, and the
// caller's recovery is to issue again. Expired WQEs drop out of the token
// index, so TokenPending turns false and a fresh post is admitted.
func (q *QP) ReapExpired() int {
	if !q.cfg.Reap || q.cfg.Timeout <= 0 {
		return 0
	}
	now := q.ep.Now()
	n := 0
	for q.queue.Len() > 0 {
		w := q.queue.Peek()
		if w.done {
			q.put(q.queue.Pop())
			continue
		}
		if now.Sub(w.Issued) <= q.cfg.Timeout {
			break
		}
		q.queue.Pop()
		q.statsFor(w.Op).Expired++
		op, token := w.Op, w.Token
		q.retire(w)
		q.put(w)
		n++
		if q.cfg.OnExpired != nil {
			q.cfg.OnExpired(op, token)
		}
	}
	return n
}

// AppendExpired appends the tokens of every WQE older than Timeout to buf
// (retry-mode QPs): the repost discipline, where the caller sorts the
// merged set and re-issues each via Repost for a reproducible PSN order.
// The walk follows issue order and stops at the first live WQE that has not
// expired, so it costs O(1) when nothing has expired and O(expired)
// otherwise. An expired WQE whose repost is refused keeps its place at the
// head and is collected again by the next call.
func (q *QP) AppendExpired(buf []uint64) []uint64 {
	if q.cfg.Timeout <= 0 {
		return buf
	}
	q.dropStaleIssues()
	now := q.ep.Now()
	for i := 0; i < q.issued.Len(); i++ {
		e := q.issued.At(i)
		if !e.live() {
			continue
		}
		if now.Sub(e.w.Issued) <= q.cfg.Timeout {
			break
		}
		buf = append(buf, e.w.Token)
	}
	return buf
}

// Abort abandons every in-flight WQE, returning held credits to the
// current window — the rebind path when the peer is gone and nothing will
// ever answer. Each abandoned WQE counts a Canceled typed error.
func (q *QP) Abort() {
	for q.queue.Len() > 0 {
		w := q.queue.Pop()
		if !w.done {
			q.Stats.Errors.Canceled++
			q.retire(w)
		}
		q.put(w)
	}
	if q.byPSN != nil {
		//gem:deterministic — draining every entry is order-independent
		for _, w := range q.byPSN {
			if !w.done {
				q.Stats.Errors.Canceled++
				q.retire(w)
				q.put(w)
			}
		}
		clear(q.byPSN)
	}
	if q.byToken != nil {
		clear(q.byToken)
	}
	for q.issued.Len() > 0 {
		q.issued.Pop()
	}
	q.cur = nil
	q.live = 0
}

// Rebind points the QP at a new endpoint and admission window (server
// failover). The caller aborts or retargets in-flight work first. Doorbell
// entries survive untouched: they are deferred intent, not in-flight work,
// and flush exactly once to the new endpoint when their trigger fires.
func (q *QP) Rebind(ep Endpoint, credits *Credits) {
	q.ep = ep
	q.credits = credits
}

// Retarget points the QP at a new endpoint WITHOUT abandoning in-flight
// work — the failover path for READ workloads whose requests must
// eventually be satisfied (retry-mode QPs). Every live WQE's held credit
// moves from the old window to the new one, and its token is appended to
// buf, in issue order, for the caller to sort and re-issue via Repost
// against the new endpoint. Responses still arriving from the old endpoint
// complete as stale.
func (q *QP) Retarget(ep Endpoint, credits *Credits, buf []uint64) []uint64 {
	for i := 0; i < q.issued.Len(); i++ {
		e := q.issued.At(i)
		if !e.live() {
			continue
		}
		w := e.w
		if w.hasCredit && q.credits != credits {
			q.credits.Release()
			credits.Acquire()
		}
		buf = append(buf, w.Token)
	}
	q.ep = ep
	q.credits = credits
	return buf
}
