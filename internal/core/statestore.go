package core

import (
	"fmt"

	"gem/internal/core/verbs"
	"gem/internal/fifo"
	"gem/internal/sim"
	"gem/internal/switchsim"
	"gem/internal/wire"
)

// StateStoreConfig tunes the state-store primitive.
type StateStoreConfig struct {
	// Counters is the number of 8-byte counters across the remote region(s).
	// With N channels the counter space stripes over them (counter i lives
	// on server i mod N), so each region holds ceil(Counters/N) words.
	Counters int
	// MaxOutstanding caps in-flight Fetch-and-Add requests per channel —
	// "Since there is a maximum limit of outstanding RDMA atomic requests
	// that an RNIC can handle, we design this primitive to maintain the
	// number of outstanding requests" (§4). 0 = the channel's negotiated
	// WindowHint (the NIC's advertised responder resources), falling back
	// to 16.
	MaxOutstanding int
	// LowWatermark is the credit window's gate-release point: once the
	// window gates at MaxOutstanding, issuing resumes only after in-flight
	// FAAs drain to this level. 0 = MaxOutstanding-1 (no hysteresis gap,
	// the classic windowed behaviour).
	LowWatermark int
	// ShedPendingSlots, when positive, turns on priority load shedding: a
	// PriorityLow update arriving while the pending table already holds
	// this many accumulators is shed (counted in ShedUpdates) instead of
	// admitted. High-priority updates are never shed, preserving their
	// exactness guarantee. 0 = disabled.
	ShedPendingSlots int
	// UnlimitedWindow disables credit refusal while keeping the accounting
	// — the test-only ablation that reproduces the unbounded-growth
	// baseline of an uncontrolled requester.
	UnlimitedWindow bool
	// PendingSlots bounds the switch-side accumulation table used while
	// the RNIC is saturated; updates beyond it are dropped and counted.
	PendingSlots int
	// Batch combines this many per-counter updates into one FAA (§7
	// future work: "combine multiple counter updates into a single
	// operation, at the cost of some delay in updates"). 1 = no batching.
	Batch uint64
	// Doorbell moves batching into the transport: updates defer into the
	// per-shard doorbell ring, where same-counter deltas coalesce before
	// any frame is built, and post when a delta reaches Batch, the ring
	// fills, or DoorbellFlush elapses. Off = the immediate posting path
	// (Batch applied per-counter at the head of the dirty queue).
	Doorbell bool
	// DoorbellFlush bounds a deferred delta's delay (the doorbell age
	// trigger). Default 50µs when Doorbell is set.
	DoorbellFlush sim.Duration
	// OutstandingTimeout declares an unanswered FAA lost, releasing its
	// outstanding slot (the switch "keeps track of RNIC progress").
	OutstandingTimeout sim.Duration
}

func (c *StateStoreConfig) fillDefaults() {
	// MaxOutstanding deliberately has no default here: NewStateStore
	// resolves 0 through the channel's WindowHint (see EnsureCredits).
	if c.PendingSlots == 0 {
		c.PendingSlots = 4096
	}
	if c.Batch == 0 {
		c.Batch = 1
	}
	if c.Doorbell && c.DoorbellFlush == 0 {
		c.DoorbellFlush = 50 * sim.Microsecond
	}
	if c.OutstandingTimeout == 0 {
		c.OutstandingTimeout = 500 * sim.Microsecond
	}
}

// StateStoreStats are the primitive's observable counters.
type StateStoreStats struct {
	Updates        int64 // data-plane count events observed
	FAAIssued      int64 // Fetch-and-Add requests sent
	AcksSeen       int64 // atomic ACKs consumed
	Accumulated    int64 // updates absorbed into pending accumulators
	DroppedUpdates int64 // updates lost because the pending table was full
	TimedOut       int64 // FAAs declared lost by the outstanding tracker
	// DegradedUpdates counts updates absorbed while the store was degraded
	// (accumulating locally, no remote traffic).
	DegradedUpdates int64
	// Reconciles counts degraded→normal transitions that flushed the backlog.
	Reconciles int64
	// ShedUpdates counts PriorityLow updates refused at admission because
	// the pending table crossed ShedPendingSlots (never silent loss).
	ShedUpdates int64
	PostureStats
	// BoundFlushes counts flushes initiated by a staleness bound (MaxDelta
	// crossed, or the MaxAge timer fired with deltas pending).
	BoundFlushes int64
	// MaxStalenessNs is the oldest age (in ns) any locally accumulated delta
	// had reached when a bound flush was initiated — the observable form of
	// the MaxAge guarantee: it never exceeds the configured bound.
	MaxStalenessNs int64
	// MaxPendingDelta is the peak locally accumulated sum ever observed —
	// under BoundedStaleness, how far the local copy drifted from remote.
	MaxPendingDelta uint64
}

// StateStore is the state-store primitive (§4): per-flow counters in remote
// DRAM updated with RDMA atomic Fetch-and-Add. While the RNIC's atomic
// pipeline is saturated, updates accumulate in switch registers and are
// flushed — with the accumulated delta — as slots free up, so the remote
// value stays exact.
//
// The store decides *what* to flush (accumulate, batch, shed); the shared
// remote core posts FAAs through a striped QP — counter i homes on shard
// i mod N, each shard a private QP and credit window over one server's
// channel, with cumulative completion (an atomic ACK retires every FAA at or
// before the echoed PSN) and the FIFO reaper standing in for RNIC-progress
// tracking on the lossy path. PSN tracking, credit release, timeout reaping
// and (in doorbell mode) delta coalescing all live in the transport.
type StateStore struct {
	remote
	cfg StateStoreConfig

	// rts carries a shard's FAAs through a Retransmitter instead of the bare
	// channel: loss recovery moves to the retransmit window, so that shard's
	// lossy-path timeout reaper is disabled (nothing is ever "lost", only
	// late). Wire responses as failover → rt → store.
	rts []*Retransmitter

	// While degraded (remote.degraded) the flush path pauses: updates
	// accumulate on the switch until Reconcile. bound parameterizes
	// BoundedStaleness. oldestPendingAt tracks when the current backlog
	// started (for the MaxAge trigger and staleness accounting); ageArmed
	// notes a scheduled age-timer event.
	bound           StalenessBound
	oldestPendingAt sim.Time
	ageArmed        bool
	// draining marks a bound flush cut short by the window: ACKs keep
	// draining the backlog until it empties, then accumulation resumes.
	draining bool

	pending    map[int]uint64    // counter index → accumulated delta
	dirty      []fifo.Queue[int] // per-shard FIFO of indexes with pending deltas
	pendingSum uint64

	// mirrors, when set per shard, shadow-post that shard's FAAs onto a
	// replica server (Replicate); replicaCh remembers the replica channel
	// for promotion, and mirrorByQPN routes replica-side ACKs.
	mirrors     []*verbs.MirroredQP
	replicaCh   []*Channel
	mirrorByQPN map[uint32]int

	Stats StateStoreStats
}

// NewStateStore wires the primitive to a single channel; the region must
// hold cfg.Counters 8-byte words.
func NewStateStore(ch *Channel, cfg StateStoreConfig) (*StateStore, error) {
	return NewStripedStateStore([]*Channel{ch}, cfg)
}

// NewStripedStateStore wires the primitive across chans (one per memory
// server): counter i homes on chans[i mod N] at offset (i div N)*8, so each
// region must hold ceil(Counters/N) words and aggregate FAA throughput
// scales with the per-server atomic ceilings.
func NewStripedStateStore(chans []*Channel, cfg StateStoreConfig) (*StateStore, error) {
	cfg.fillDefaults()
	if cfg.Counters <= 0 {
		return nil, fmt.Errorf("core: state store needs a positive counter count")
	}
	s := &StateStore{
		cfg:         cfg,
		pending:     make(map[int]uint64, cfg.PendingSlots),
		dirty:       make([]fifo.Queue[int], len(chans)),
		rts:         make([]*Retransmitter, len(chans)),
		mirrors:     make([]*verbs.MirroredQP, len(chans)),
		replicaCh:   make([]*Channel, len(chans)),
		mirrorByQPN: make(map[uint32]int),
	}
	err := s.init("state store", chans, &s.Stats.PostureStats, cfg.Counters,
		&verbs.CreditConfig{Window: cfg.MaxOutstanding, Low: cfg.LowWatermark, Unlimited: cfg.UnlimitedWindow},
		verbs.QPConfig{
			Cumulative: true,
			Reap:       true,
			Timeout:    cfg.OutstandingTimeout,
			OnExpired:  func(verbs.OpType, uint64) { s.Stats.TimedOut++ },
		},
		verbs.StripeConfig{EntrySize: 8})
	if err != nil {
		return nil, err
	}
	// The pending table is switch SRAM: index (4B) + delta (8B) + slack.
	if err := s.sw.SRAM.Alloc(fmt.Sprintf("statestore%d/pending", chans[0].ID), cfg.PendingSlots*16); err != nil {
		return nil, err
	}
	if cfg.Doorbell {
		for i := range chans {
			s.striped.Shard(i).EnableDoorbell(verbs.DoorbellConfig{
				MaxAge:     cfg.DoorbellFlush,
				FlushDelta: cfg.Batch,
			})
		}
	}
	// Reflect the resolved window (WindowHint or credit default) back into
	// the config so Config().MaxOutstanding reports the effective limit.
	s.cfg.MaxOutstanding = s.credits[0].Config().Window
	return s, nil
}

// Config returns the effective configuration.
func (s *StateStore) Config() StateStoreConfig { return s.cfg }

// RebindShard moves shard si to a new channel without disturbing its
// siblings. In-flight requests to the old server are abandoned; locally
// accumulated updates — the pending table and any deltas deferred in the
// shard's doorbell ring — are preserved and flush to the new server exactly
// once (a doorbell entry leaves the ring the moment it posts, so a flush
// trigger that straddles the rebind cannot double-post its delta). Counts
// already committed to the dead server's DRAM are lost — the caller
// accounts for them via the old region if it ever comes back.
func (s *StateStore) RebindShard(si int, ch *Channel) {
	// Abandoned in-flight FAAs return their credits to the old channel's
	// window (a late answer from the old server is dropped by shardOf), then
	// the shard adopts the new channel and its window.
	qp := s.striped.Shard(si)
	qp.Abort()
	qp.Rebind(ch, s.rebind(si, ch))
	s.flush()
}

// Replicate shadow-posts shard si's flushed work onto replica — a channel
// to a second server whose region mirrors the shard's counter window. The
// replica QP is credit-less (the mirror must never backpressure the
// primary's admission window) and cumulative, like the shard itself.
// Incompatible with Doorbell mode: there the transport owns the posting
// moment, so the store never sees the post to shadow it. Returns the
// mirror for introspection (promotion is PromoteShard).
func (s *StateStore) Replicate(si int, replica *Channel, cfg verbs.MirrorConfig) (*verbs.MirroredQP, error) {
	if s.cfg.Doorbell {
		return nil, fmt.Errorf("core: replication is incompatible with doorbell batching (the transport owns the posting moment)")
	}
	if s.mirrors[si] != nil {
		return nil, fmt.Errorf("core: shard %d already replicated", si)
	}
	if s.shardBytes > replica.Size {
		return nil, fmt.Errorf("core: replica region too small: %d < %d", replica.Size, s.shardBytes)
	}
	rqp := verbs.NewQP(replica, nil, verbs.QPConfig{Cumulative: true})
	m := verbs.NewMirrored(s.striped.Shard(si), rqp, cfg)
	s.mirrors[si] = m
	s.replicaCh[si] = replica
	s.mirrorByQPN[replica.ID] = si
	return m, nil
}

// Mirror returns shard si's mirror (nil when the shard is unreplicated).
func (s *StateStore) Mirror(si int) *verbs.MirroredQP { return s.mirrors[si] }

// ReplicaChannel returns shard si's replica channel (nil when
// unreplicated) — the scrubber and promotion verification read through it.
func (s *StateStore) ReplicaChannel(si int) *Channel { return s.replicaCh[si] }

// MirrorStats merges every shard mirror's replication counters.
func (s *StateStore) MirrorStats() verbs.MirrorStats {
	var st verbs.MirrorStats
	for _, m := range s.mirrors {
		if m != nil {
			st = st.Add(m.Stats)
		}
	}
	return st
}

// MirrorLagTier maps the worst shard's replica lag onto the supervisor's
// pressure scale: 0 under half the lag bound, 1 past half, 2 past the bound
// itself. Promoted (and unreplicated) shards report 0 — there is no replica
// left to lag.
func (s *StateStore) MirrorLagTier() int {
	tier := 0
	for _, m := range s.mirrors {
		if m == nil || m.Promoted() {
			continue
		}
		lag, bound := m.Lag(), m.MaxLag()
		switch {
		case lag > bound:
			tier = 2
		case lag*2 > bound && tier < 1:
			tier = 1
		}
		if tier == 2 {
			break
		}
	}
	return tier
}

// PromoteShard makes shard si's replica the authoritative copy after a
// primary crash: the mirror replays its journal of never-posted work into
// the replica, then the shard rebinds to the replica channel (aborting
// in-flight requests to the dead primary, flushing the pending backlog to
// the replica). The order matters — the replay must use the replica-side QP
// before the shard QP adopts the replica's channel. A second call (the
// failback edge re-firing OnFailover) is a no-op: a promoted shard stays on
// its replica, where the surviving bytes are. Reports whether a promotion
// happened.
func (s *StateStore) PromoteShard(si int) bool {
	m := s.mirrors[si]
	if m == nil || m.Promoted() {
		return false
	}
	m.Promote()
	s.RebindShard(si, s.replicaCh[si])
	return true
}

// SetShardRetransmitter routes shard si's FAAs through rt (reliable mode).
// The shard's QP becomes rt's completion queue and the store becomes rt's
// Inner handler, unless the caller wired either already, so NAKs and
// retry-budget exhaustion surface as typed error completions in the store's
// transport stats. The caller registers rt (not the store) with the
// dispatcher, so responses reach rt first, and retargets rt on failover.
func (s *StateStore) SetShardRetransmitter(si int, rt *Retransmitter) {
	s.rts[si] = rt
	if rt.CQ == nil {
		rt.CQ = s.striped.Shard(si)
	}
	if rt.Inner == nil {
		rt.Inner = s
	}
	s.striped.Shard(si).SetReliable(rt)
}

// SetConsistencyMode switches the store's state-access contract. Entering
// BoundedStaleness fills b's defaults and arms the staleness machinery for
// whatever backlog already exists; returning to Strict flushes the backlog a
// relaxed mode accumulated (the synchronous contract resumes only once the
// local copy converges). b is ignored for Strict and Eventual.
func (s *StateStore) SetConsistencyMode(m ConsistencyMode, b StalenessBound) {
	prev := s.mode
	if m == BoundedStaleness {
		b.fillDefaults()
		s.bound = b
	}
	s.setMode(m)
	switch {
	case m == BoundedStaleness && s.pendingSum > 0:
		s.armAgeTimer()
	case m == Strict && prev != Strict:
		s.reapLossy()
		s.flush()
	}
}

// Bound reports the effective staleness bound (meaningful in
// BoundedStaleness mode).
func (s *StateStore) Bound() StalenessBound { return s.bound }

// Reconcile converges the local copy with remote memory: any degraded
// interval ends (through the single SetDegraded exit edge) and the
// accumulated backlog flushes as outstanding slots allow. Safe to call
// whether or not the store is degraded — a supervisor fires it on every
// recovery without tracking which posture caused the backlog.
func (s *StateStore) Reconcile() {
	if s.degraded {
		s.Stats.Reconciles++
		s.SetDegraded(false)
	}
	s.reapLossy()
	s.flush()
}

// reapLossy runs the expiry reaper on every shard not covered by a
// retransmitter (reliable shards never lose requests, only delay them).
func (s *StateStore) reapLossy() {
	for i := range s.rts {
		if s.rts[i] == nil {
			s.striped.Shard(i).ReapExpired()
		}
	}
}

// Outstanding reports in-flight FAA requests across all shards.
func (s *StateStore) Outstanding() int {
	n := 0
	for _, cr := range s.credits {
		n += cr.Outstanding()
	}
	return n
}

// Pending reports the delta accumulated on the switch for counter idx but
// not yet flushed — the pending-table accumulator plus any delta deferred
// in the home shard's doorbell ring. Exactness checks add it to the remote
// value.
func (s *StateStore) Pending(idx int) uint64 {
	return s.pending[idx] + s.striped.Home(uint64(idx)).DoorbellDeltaAt(s.striped.Offset(uint64(idx)))
}

// PendingTotal reports updates accumulated on the switch but not yet on the
// wire — pending-table deltas plus doorbell-resident deltas. The value
// accuracy checks add it to the remote counters.
func (s *StateStore) PendingTotal() uint64 {
	return s.pendingSum + s.striped.DoorbellDelta()
}

// CounterOffset returns counter idx's byte offset inside its home shard's
// region.
func (s *StateStore) CounterOffset(idx int) int { return s.striped.Offset(uint64(idx)) }

// CounterHome returns the channel holding counter idx and its offset there.
func (s *StateStore) CounterHome(idx int) (*Channel, int) {
	return s.chans[s.striped.ShardOf(uint64(idx))], s.striped.Offset(uint64(idx))
}

// UpdateFlow counts one packet of the flow identified by key.
func (s *StateStore) UpdateFlow(key wire.FlowKey) {
	s.Update(key.Index(s.cfg.Counters), 1)
}

// Update adds delta to counter idx, issuing a Fetch-and-Add immediately
// when the RNIC has room (and the batch threshold is met), accumulating
// locally otherwise. Update is the high-priority path: it is never shed.
func (s *StateStore) Update(idx int, delta uint64) {
	s.UpdatePrio(idx, delta, switchsim.PriorityHigh)
}

// UpdatePrio is Update with an admission priority. Under overload (pending
// table at ShedPendingSlots or beyond), PriorityLow updates are shed and
// counted; admitted updates keep the store's exactness guarantee.
func (s *StateStore) UpdatePrio(idx int, delta uint64, prio switchsim.Priority) {
	if idx < 0 || idx >= s.cfg.Counters {
		panic(fmt.Sprintf("core: counter index %d out of range", idx))
	}
	// Eventual mode never sheds: absorbing the update stream into the local
	// copy is the contract, and the pending table (PendingSlots) is the only
	// capacity limit.
	if prio == switchsim.PriorityLow && s.cfg.ShedPendingSlots > 0 &&
		s.mode != Eventual && len(s.pending) >= s.cfg.ShedPendingSlots {
		// Shed before the update is observed: the counters below only ever
		// account for admitted traffic, so "admitted == remote + pending"
		// stays exact.
		s.Stats.ShedUpdates += int64(delta)
		return
	}
	s.Stats.Updates += int64(delta)
	if s.degraded {
		s.Stats.DegradedUpdates += int64(delta)
		s.accumulate(idx, delta)
		return
	}
	switch s.mode {
	case BoundedStaleness:
		// Proceed on the local copy; flush only when a bound trips. The
		// MaxAge timer (armed by accumulate's backlog-start edge) covers the
		// age bound, the delta check here covers the volume bound.
		s.accumulate(idx, delta)
		if s.pendingSum >= s.bound.MaxDelta {
			s.boundFlush()
		}
	case Eventual:
		s.accumulate(idx, delta)
		s.opportunisticFlush()
	default:
		s.reapLossy()
		s.accumulate(idx, delta)
		s.flush()
	}
}

func (s *StateStore) accumulate(idx int, delta uint64) {
	if _, exists := s.pending[idx]; !exists {
		if len(s.pending) >= s.cfg.PendingSlots {
			s.Stats.DroppedUpdates += int64(delta)
			return
		}
		si := s.striped.ShardOf(uint64(idx))
		s.dirty[si].Push(idx)
	}
	if s.pendingSum == 0 {
		// Backlog starts now: remember when, for the staleness accounting,
		// and arm the MaxAge trigger if the mode bounds it.
		s.oldestPendingAt = s.sw.Engine.Now()
		s.armAgeTimer()
	}
	s.pending[idx] += delta
	s.pendingSum += delta
	if s.pendingSum > s.Stats.MaxPendingDelta {
		s.Stats.MaxPendingDelta = s.pendingSum
	}
	s.Stats.Accumulated += int64(delta)
}

// armAgeTimer schedules the BoundedStaleness MaxAge trigger, at most one
// outstanding event at a time. Strict and Eventual modes never arm it, so
// they add no events to the schedule.
func (s *StateStore) armAgeTimer() {
	if s.ageArmed || s.mode != BoundedStaleness || s.bound.MaxAge <= 0 {
		return
	}
	s.ageArmed = true
	s.sw.Engine.ScheduleCall(s.bound.MaxAge, stateStoreAgeTimer, s, nil, 0)
}

func stateStoreAgeTimer(recv any, _ []byte, _ int) { recv.(*StateStore).onAgeTimer() }

func (s *StateStore) onAgeTimer() {
	s.ageArmed = false
	if s.mode != BoundedStaleness || s.degraded || s.pendingSum == 0 {
		return
	}
	s.boundFlush()
}

// boundFlush is a flush initiated by a staleness bound: it records how stale
// the oldest accumulated delta got (never beyond MaxAge, by construction of
// the age timer), drains what credits allow, and restarts the staleness
// clock for whatever backlog remains.
func (s *StateStore) boundFlush() {
	now := s.sw.Engine.Now()
	if stale := int64(now.Sub(s.oldestPendingAt)); stale > s.Stats.MaxStalenessNs {
		s.Stats.MaxStalenessNs = stale
	}
	s.Stats.BoundFlushes++
	s.reapLossy()
	s.flush()
	s.draining = s.pendingSum > 0
	if s.draining {
		s.oldestPendingAt = now
		s.armAgeTimer()
	}
}

// opportunisticFlush is the Eventual-mode reconcile: a shard's backlog moves
// to the wire only when its window is fully idle, so deltas coalesce
// maximally and flushing never competes with in-flight work.
func (s *StateStore) opportunisticFlush() {
	if s.degraded {
		return
	}
	s.reapLossy()
	for si := range s.dirty {
		if s.credits[si].Outstanding() == 0 {
			s.flushShard(si)
		}
	}
}

// flush moves dirty counters toward the wire, shard by shard: immediate
// FAAs while outstanding slots remain and batch thresholds are met, or — in
// doorbell mode — deferrals into the shard's pending ring, where the
// transport coalesces and posts them on its own triggers.
func (s *StateStore) flush() {
	if s.degraded {
		return
	}
	for si := range s.dirty {
		s.flushShard(si)
	}
	if s.cfg.Doorbell {
		// FAAIssued counts frames, and in doorbell mode the transport owns
		// the posting moment; mirror its flush counters.
		var n int64
		for i := 0; i < s.striped.Shards(); i++ {
			n += s.striped.Shard(i).DoorbellStatsSnapshot().Flushed
		}
		s.Stats.FAAIssued = n
	}
}

func (s *StateStore) flushShard(si int) {
	qp := s.striped.Shard(si)
	dirty := &s.dirty[si]

	if s.cfg.Doorbell {
		for dirty.Len() > 0 {
			idx := dirty.Peek()
			delta := s.pending[idx]
			if delta == 0 {
				dirty.Pop()
				delete(s.pending, idx)
				continue
			}
			if !qp.DeferFetchAdd(s.striped.Offset(uint64(idx)), delta) {
				return // ring full and undrainable; retry on next event
			}
			dirty.Pop()
			delete(s.pending, idx)
			s.pendingSum -= delta
		}
		// Retry a previously cut-short batch now that this event may have
		// freed credits; batches still accumulating keep their own triggers.
		qp.RingUrgent()
		return
	}

	for qp.CanPost() && dirty.Len() > 0 {
		idx := dirty.Peek()
		delta := s.pending[idx]
		if delta == 0 {
			// Signed updates cancelled out: nothing to flush. The map
			// entry must go too, or later updates to this counter would
			// accumulate without ever rejoining the dirty queue.
			dirty.Pop()
			delete(s.pending, idx)
			continue
		}
		if delta < s.cfg.Batch && s.credits[si].Outstanding() > 0 {
			// Not enough accumulated to justify an op while the NIC is
			// busy; wait for more updates or a free pipeline.
			return
		}
		posted := false
		if m := s.mirrors[si]; m != nil {
			posted = m.PostFetchAdd(s.striped.Offset(uint64(idx)), delta)
		} else {
			posted = qp.PostFetchAdd(s.striped.Offset(uint64(idx)), delta)
		}
		if !posted {
			return // egress or retransmit window full; retry on next event
		}
		dirty.Pop()
		delete(s.pending, idx)
		s.pendingSum -= delta
		s.Stats.FAAIssued++
	}
}

// HandleResponse consumes atomic ACKs, freeing outstanding slots and
// flushing accumulated updates. The echoed destination QPN routes the ACK
// to its shard; an ACK from a channel the store was rebound away from is
// dropped (shardOf).
func (s *StateStore) HandleResponse(ctx *switchsim.Context, pkt *wire.Packet) {
	ctx.Drop() // responses never leave the switch
	if pkt.BTH.Opcode != wire.OpAtomicAcknowledge {
		return
	}
	s.Stats.AcksSeen++
	// Replica-side ACKs route to the mirror's exact-match journal, never to
	// the shard's cumulative FIFO. After a promotion the replica channel IS
	// the shard channel (rebound), so a promoted mirror falls through to the
	// normal path below.
	if mi, ok := s.mirrorByQPN[pkt.BTH.DestQP]; ok && !s.mirrors[mi].Promoted() {
		s.mirrors[mi].AckReplica(pkt.BTH.PSN)
		return
	}
	si, ok := s.shardOf(pkt.BTH.DestQP)
	if !ok {
		return
	}
	// Cumulative completion: anything at or before the echoed PSN is
	// answered or lost-and-answered-later.
	s.striped.Shard(si).AckCumulative(pkt.BTH.PSN)
	if m := s.mirrors[si]; m != nil && !m.Promoted() {
		m.AckPrimary(pkt.BTH.PSN)
	}
	switch s.mode {
	case BoundedStaleness:
		// Between bounds the local copy is allowed to drift; ACKs continue a
		// drain only when a bound already tripped and was cut short.
		if s.draining {
			s.reapLossy()
			s.flush()
			if s.pendingSum == 0 {
				s.draining = false
			}
		}
	case Eventual:
		s.opportunisticFlush()
	default:
		s.flush()
	}
}
