package verbs

import "gem/internal/sim"

// Doorbell-batched posting: Post* at ~zero cost, one flush pass per batch.
//
// Real NICs separate "enqueue a WQE" (a store into host memory) from
// "doorbell" (one MMIO write that hands the NIC a whole batch). The same
// split pays off here: DeferFetchAdd appends into a preallocated per-QP
// pending ring without building a frame, same-offset deltas coalesce in
// place while they wait, and Ring() walks the ring once, turning each entry
// into a wire FAA. The ring is the transport-level home for the paper's
// "combine k updates into one operation, at the cost of some delay"
// batching knob: an entry posts when its coalesced delta reaches
// FlushDelta (the StateStore maps Config.Batch here), when the ring fills,
// when MaxAge elapses, or when the owner flushes explicitly at the end of a
// pipeline pass.
//
// Exactly-once per delta: an entry leaves the ring at the instant its WQE
// is posted (bound to a PSN), so no later trigger — age timer, duplicate
// Ring, post-failover flush — can re-post it. Entries that were never
// posted survive Abort/Rebind untouched: they are deferred caller intent,
// not in-flight work, and flush exactly once to whichever endpoint is
// current when their trigger fires.

// DoorbellConfig tunes a QP's pending ring.
type DoorbellConfig struct {
	// MaxPending is the ring capacity in distinct offsets. A deferral that
	// finds the ring full forces a flush first (size trigger). Default 32.
	MaxPending int
	// MaxAge bounds how long a deferred delta may wait: the first deferral
	// into an idle ring arms a timer that flushes the whole ring when it
	// fires. 0 disables the age trigger.
	MaxAge sim.Duration
	// FlushDelta posts an entry as soon as its coalesced delta reaches this
	// value — the batching factor k. Only the ripe entry posts; its
	// neighbours keep coalescing. 0 disables the delta trigger.
	FlushDelta uint64
}

// DoorbellStats counts pending-ring traffic.
type DoorbellStats struct {
	Deferred  int64 // deltas accepted into the ring
	Coalesced int64 // deltas merged into a resident same-offset entry
	Rings     int64 // full-ring flush passes (explicit, size or age trigger)
	Flushed   int64 // WQEs posted out of the ring (frames on the wire)
}

type dbEntry struct {
	offset int
	delta  uint64
}

type doorbell struct {
	cfg     DoorbellConfig
	entries []dbEntry // entries[:n], in deferral order
	n       int
	urgent  bool // a triggered flush was cut short; retry on RingUrgent
	armed   bool // age timer scheduled
	flushFn func()
	Stats   DoorbellStats
}

// EnableDoorbell attaches a pending ring to the QP. The ring and its timer
// callback are allocated once, here, so the defer/ring/complete cycle stays
// allocation-free.
func (q *QP) EnableDoorbell(cfg DoorbellConfig) {
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 32
	}
	q.db = &doorbell{cfg: cfg, entries: make([]dbEntry, cfg.MaxPending)}
	q.db.flushFn = q.ringFromTimer
}

// DoorbellPending returns the number of entries resident in the ring.
func (q *QP) DoorbellPending() int {
	if q.db == nil {
		return 0
	}
	return q.db.n
}

// DoorbellDelta sums the deltas resident in the ring — deferred but not yet
// on the wire.
func (q *QP) DoorbellDelta() uint64 {
	if q.db == nil {
		return 0
	}
	var d uint64
	for i := 0; i < q.db.n; i++ {
		d += q.db.entries[i].delta
	}
	return d
}

// DoorbellDeltaAt returns the resident delta for one offset.
func (q *QP) DoorbellDeltaAt(offset int) uint64 {
	if q.db == nil {
		return 0
	}
	for i := 0; i < q.db.n; i++ {
		if q.db.entries[i].offset == offset {
			return q.db.entries[i].delta
		}
	}
	return 0
}

// DoorbellStatsSnapshot returns the ring's counters.
func (q *QP) DoorbellStatsSnapshot() DoorbellStats {
	if q.db == nil {
		return DoorbellStats{}
	}
	return q.db.Stats
}

// DeferFetchAdd enqueues a Fetch-and-Add into the pending ring without
// building a frame. A resident entry for the same offset absorbs the delta
// in place; a fresh offset takes a ring slot. Returns false only when the
// ring is full and a forced flush could not free a slot (credits gated or
// egress refused) — the caller keeps the delta in its own pending state and
// retries after the next completion.
func (q *QP) DeferFetchAdd(offset int, delta uint64) bool {
	db := q.db
	for i := 0; i < db.n; i++ {
		if db.entries[i].offset == offset {
			db.entries[i].delta += delta
			db.Stats.Deferred++
			db.Stats.Coalesced++
			if db.cfg.FlushDelta > 0 && db.entries[i].delta >= db.cfg.FlushDelta {
				q.flushEntry(i)
			}
			return true
		}
	}
	if db.n == len(db.entries) {
		q.Ring()
		if db.n == len(db.entries) {
			return false
		}
	}
	db.entries[db.n] = dbEntry{offset: offset, delta: delta}
	db.n++
	db.Stats.Deferred++
	if db.cfg.FlushDelta > 0 && delta >= db.cfg.FlushDelta {
		q.flushEntry(db.n - 1)
		return true
	}
	if db.cfg.MaxAge > 0 && !db.armed {
		db.armed = true
		q.ep.Schedule(db.cfg.MaxAge, db.flushFn)
	}
	return true
}

// flushEntry posts ring entry i alone (the FlushDelta ripeness trigger:
// that entry has a full batch, its neighbours keep coalescing). On refusal
// the entry stays resident and the ring is marked urgent.
func (q *QP) flushEntry(i int) {
	db := q.db
	if !q.CanPost() || !q.PostFetchAdd(db.entries[i].offset, db.entries[i].delta) {
		db.urgent = true
		return
	}
	db.Stats.Flushed++
	copy(db.entries[i:db.n-1], db.entries[i+1:db.n])
	db.n--
}

// Ring flushes the whole pending ring: entries post in deferral order until
// the transport refuses. Each posted entry leaves the ring immediately — a
// delta binds to a PSN exactly once, so a duplicate Ring (age timer firing
// after an explicit flush, a flush after failover rebind) can never re-post
// it. A cut-short flush marks the ring urgent; leftovers retry on
// RingUrgent (typically the owner's ACK path) or the next trigger. Returns
// the number of WQEs posted.
func (q *QP) Ring() int {
	db := q.db
	if db == nil || db.n == 0 {
		return 0
	}
	db.Stats.Rings++
	posted := 0
	for posted < db.n {
		e := db.entries[posted]
		if !q.CanPost() || !q.PostFetchAdd(e.offset, e.delta) {
			break
		}
		posted++
	}
	if posted > 0 {
		copy(db.entries[:db.n-posted], db.entries[posted:db.n])
		db.n -= posted
		db.Stats.Flushed += int64(posted)
	}
	db.urgent = db.n > 0
	return posted
}

// RingUrgent flushes only if a previous triggered flush was cut short,
// leaving still-accumulating batches to their own triggers.
func (q *QP) RingUrgent() int {
	if q.db == nil || !q.db.urgent {
		return 0
	}
	return q.Ring()
}

// ringFromTimer is the MaxAge callback: flush everything old enough to have
// been resident a full period, and re-arm while entries remain.
func (q *QP) ringFromTimer() {
	db := q.db
	db.armed = false
	q.Ring()
	if db.n > 0 && db.cfg.MaxAge > 0 {
		db.armed = true
		q.ep.Schedule(db.cfg.MaxAge, db.flushFn)
	}
}
