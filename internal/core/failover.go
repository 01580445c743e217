package core

import (
	"fmt"

	"gem/internal/core/verbs"
	"gem/internal/sim"
	"gem/internal/switchsim"
	"gem/internal/wire"
)

// Failover addresses the last §7 open problem — "improve the robustness of
// the architecture by handling switch and server failures" — for the
// memory-server side: the switch control plane provisions channels to a
// primary and one or more standby servers, the data plane heartbeats the
// active one with tiny RDMA READs, and when heartbeats go unanswered the
// primitive is rebound to the next standby. State stored only on the dead
// server is lost (remote memory is a performance tier, not durable
// storage); the accounting below makes that loss measurable.
//
// Members that were failed away from keep being probed on their own
// channels; when a higher-priority member answers failbackThreshold probes
// in a row the group fails back to it. When every member is dead the group
// enters the Exhausted state (keeps probing, and leaves it when the active
// member answers again) instead of silently wedging.
type Failover struct {
	sw      *switchsim.Switch
	members []*foMember
	active  int

	// HeartbeatInterval paces the liveness probes (default 100 µs).
	HeartbeatInterval sim.Duration

	// Inner receives every non-heartbeat response for the active channel.
	Inner ResponseHandler
	// OnFailover is invoked after every switchover — failover or failback —
	// with the old and new channels; the state store rebinds here
	// (StateStore.RebindShard). The shared remote core moves the shard's
	// routing and credit window; the store aborts the in-flight work and
	// re-posts from its dirty set.
	OnFailover func(old, new *Channel)
	// CQ, when set, receives a typed CQFailoverExhausted completion each time
	// failover looks for a standby and finds none — the observable form of
	// the Exhausted flag, so a supervisor can react to the dead-end on its
	// error-rate surface instead of polling. Nil keeps the legacy behavior.
	CQ *verbs.QP

	// Exhausted is set when failover finds no standby left: every member is
	// presumed dead and the group is degraded to probing until something
	// answers.
	Exhausted bool

	misses  int
	started bool
	stopped bool

	// Stats.
	HeartbeatsSent  int64
	HeartbeatsAcked int64
	Failovers       int64
	Failbacks       int64
	FailbackProbes  int64
	FailbackAcks    int64
	// ForcedWhileExhausted counts ForceFailover calls that arrived after the
	// group was already Exhausted — each is a no-op with a typed
	// CQFailoverExhausted completion, never a rebind to the dead primary.
	ForcedWhileExhausted int64
	// StaleDropped counts responses addressed to a non-active member's
	// channel that were discarded instead of reaching Inner.
	StaleDropped int64
	// LastDetection is the time between the first missed heartbeat of the
	// failure and the switchover.
	LastDetection sim.Duration
	firstMissAt   sim.Time
}

// foMember tracks one channel's probe state. Outstanding probe PSNs are kept
// per member and never wholesale-cleared, so a response can always be matched
// to the member it belongs to — the fix for stale heartbeats of a dead
// ex-primary leaking through to Inner after a switchover.
type foMember struct {
	ch     *Channel
	probes map[uint32]bool
	order  []uint32 // FIFO of outstanding probe PSNs, for bounded pruning
	// lastPSN remembers the most recent probe. Liveness judgements look only
	// at it: older unanswered probes from a past outage linger in the map
	// (until pruned) and must not keep counting as fresh misses after the
	// server is answering again.
	lastPSN uint32
	hasLast bool
	// dead marks a member the group failed away from; it is probed for
	// failback. consec counts its consecutive answered probes.
	dead   bool
	consec int
}

const (
	// missThreshold consecutive unanswered heartbeats declare the server
	// dead.
	missThreshold = 3
	// failbackThreshold consecutive answered probes from a recovered
	// higher-priority member trigger failback to it.
	failbackThreshold = 3
)

// maxOutstandingProbes bounds each member's probe map; the oldest PSNs are
// forgotten first (their late answers then count as stale drops).
const maxOutstandingProbes = 128

func (m *foMember) addProbe(psn uint32) {
	if len(m.order) >= maxOutstandingProbes {
		delete(m.probes, m.order[0])
		m.order = m.order[1:]
	}
	m.probes[psn] = true
	m.order = append(m.order, psn)
	m.lastPSN = psn
	m.hasLast = true
}

// lastUnanswered reports whether the most recent probe is still outstanding.
func (m *foMember) lastUnanswered() bool { return m.hasLast && m.probes[m.lastPSN] }

// NewFailover builds a failover group over channels (primary first). All
// channels should have a readable word at offset 0.
func NewFailover(channels []*Channel, inner ResponseHandler) (*Failover, error) {
	if len(channels) < 2 {
		return nil, fmt.Errorf("core: failover needs a primary and at least one standby")
	}
	members := make([]*foMember, len(channels))
	for i, ch := range channels {
		members[i] = &foMember{ch: ch, probes: make(map[uint32]bool)}
	}
	return &Failover{
		sw:                channels[0].sw,
		members:           members,
		HeartbeatInterval: 100 * sim.Microsecond,
		Inner:             inner,
	}, nil
}

// Active returns the channel currently in use.
func (f *Failover) Active() *Channel { return f.members[f.active].ch }

// RegisterWith binds every member channel's responses to the failover
// group (heartbeat filtering happens here; the rest reaches Inner).
func (f *Failover) RegisterWith(d *Dispatcher) {
	for _, m := range f.members {
		d.Register(m.ch, f)
	}
}

// Start begins heartbeating. Call once after registration.
func (f *Failover) Start() {
	if f.started {
		return
	}
	f.started = true
	f.sw.Engine.Ticker(f.HeartbeatInterval, func() bool {
		if f.stopped {
			return false
		}
		f.tick()
		return true
	})
}

// Stop ends heartbeating at the next tick. The group can not be restarted;
// it exists so a simulation can wind down to quiescence (an active ticker
// keeps the event queue non-empty forever).
func (f *Failover) Stop() { f.stopped = true }

func (f *Failover) tick() {
	act := f.members[f.active]
	// Unanswered probe from last tick = a miss.
	if act.lastUnanswered() {
		if f.misses == 0 {
			f.firstMissAt = f.sw.Engine.Now().Add(-f.HeartbeatInterval)
		}
		f.misses++
		if f.misses >= missThreshold && !f.Exhausted {
			f.failover()
			act = f.members[f.active]
		}
	} else {
		f.misses = 0
	}
	if psn := act.ch.PSN(); act.ch.Read(0, 8, 1) {
		act.addProbe(psn)
		f.HeartbeatsSent++
	}
	// Probe dead ex-members on their own channels so a recovered
	// higher-priority server can be failed back to.
	for i, m := range f.members {
		if i == f.active || !m.dead {
			continue
		}
		if m.lastUnanswered() {
			m.consec = 0 // the newest failback probe went unanswered
		}
		if psn := m.ch.PSN(); m.ch.Read(0, 8, 1) {
			m.addProbe(psn)
			f.FailbackProbes++
		}
	}
}

func (f *Failover) failover() {
	if f.active+1 >= len(f.members) {
		// No standby left. Degrade explicitly: remember we are exhausted,
		// reset the miss counter, and keep probing the (dead) active member
		// so recovery is noticed — do not count phantom failovers.
		wasExhausted := f.Exhausted
		f.Exhausted = true
		f.misses = 0
		if f.CQ != nil && !wasExhausted {
			f.CQ.CompleteError(verbs.OpRead, uint64(f.Active().PSN()), f.Active().PSN(), verbs.CQFailoverExhausted)
		}
		return
	}
	old := f.members[f.active]
	old.dead = true
	old.consec = 0
	f.active++
	f.misses = 0
	f.Failovers++
	f.LastDetection = f.sw.Engine.Now().Sub(f.firstMissAt)
	if f.OnFailover != nil {
		f.OnFailover(old.ch, f.Active())
	}
}

// ForceFailover switches to the next standby immediately, without waiting
// for the miss threshold — the escalation target for
// Retransmitter.OnExhausted. Reports whether a switchover happened.
//
// Once the group is Exhausted a forced failover is a counted no-op: there
// is nothing to switch to, and re-entering failover() would clobber the
// miss clock and re-run the dead-end path. Each such call counts
// ForcedWhileExhausted and emits a typed CQFailoverExhausted completion so
// the caller's escalation is visible on the error-rate surface rather than
// silently rebinding to the dead primary.
func (f *Failover) ForceFailover() bool {
	if f.Exhausted {
		f.ForcedWhileExhausted++
		if f.CQ != nil {
			f.CQ.CompleteError(verbs.OpRead, uint64(f.Active().PSN()), f.Active().PSN(), verbs.CQFailoverExhausted)
		}
		return false
	}
	if f.misses == 0 {
		f.firstMissAt = f.sw.Engine.Now()
	}
	before := f.active
	f.failover()
	return f.active != before
}

// failback returns to recovered member idx (higher priority than active).
func (f *Failover) failback(idx int) {
	old := f.members[f.active]
	recovered := f.members[idx]
	recovered.dead = false
	recovered.consec = 0
	f.active = idx
	f.misses = 0
	f.Failbacks++
	if f.OnFailover != nil {
		f.OnFailover(old.ch, recovered.ch)
	}
}

// HandleResponse filters heartbeat and failback probe responses, drops
// stale responses addressed to non-active members, and forwards the rest to
// Inner.
func (f *Failover) HandleResponse(ctx *switchsim.Context, pkt *wire.Packet) {
	idx := -1
	for i, m := range f.members {
		if m.ch.ID == pkt.BTH.DestQP {
			idx = i
			break
		}
	}
	if idx >= 0 {
		m := f.members[idx]
		if pkt.BTH.Opcode.IsReadResponse() && m.probes[pkt.BTH.PSN] {
			delete(m.probes, pkt.BTH.PSN)
			if idx == f.active {
				f.HeartbeatsAcked++
				f.misses = 0
				f.Exhausted = false
			} else {
				f.FailbackAcks++
				m.consec++
				if m.dead && idx < f.active && m.consec >= failbackThreshold {
					f.failback(idx)
				}
			}
			ctx.Drop()
			return
		}
		if idx != f.active {
			// A data response on a former member's channel: the primitive
			// rebound at switchover, so forwarding this would corrupt its
			// bookkeeping (e.g. retire the wrong PSN window).
			f.StaleDropped++
			ctx.Drop()
			return
		}
	}
	if f.Inner != nil {
		f.Inner.HandleResponse(ctx, pkt)
		return
	}
	ctx.Drop()
}
