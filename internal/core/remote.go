package core

import (
	"fmt"

	"gem/internal/core/verbs"
	"gem/internal/switchsim"
)

// PostureStats count a primitive's posture edges. Every primitive's stats
// embed them and the shared core increments them.
type PostureStats struct {
	// DegradedEntries / DegradedExits count transitions into and out of the
	// degraded posture (SetDegraded edges, however recovery is spelled).
	DegradedEntries int64
	DegradedExits   int64
	// ModeChanges counts SetConsistencyMode transitions between distinct
	// modes (a supervisor relaxing and restoring the contract).
	ModeChanges int64
}

// remote is the switch↔RNIC core under every primitive. In Packet
// Transactions' terms the primitive says *what* a remote update is; remote
// owns *how* it reaches the server: the channels, one QP per channel striped
// by key, the per-shard admission windows, response routing, the degraded
// and consistency-mode posture, and the routing half of a shard rebind.
// Primitives embed it by value, so every field is one offset away on the
// data path.
type remote struct {
	chans   []*Channel
	sw      *switchsim.Switch
	striped *verbs.StripedQP
	// credits are the per-shard admission windows, one per channel (nil
	// entries when the primitive runs unmetered).
	credits []*verbs.Credits
	byQPN   map[uint32]int // channel QPN → shard, for response routing
	// shardBytes is the region size a shard's channel must hold.
	shardBytes int

	// degraded stops the primitive's remote traffic (what that means is the
	// primitive's policy); mode is its consistency contract.
	degraded bool
	mode     ConsistencyMode
	posture  *PostureStats // the owning primitive's Stats block
}

// init builds the shards over chans: for each channel in order its admission
// window (EnsureCredits from credit; none when credit is nil) and a QP with
// qcfg, then one striped QP over them. Each shard holds stripe.SlotsPerShard
// entries, or ceil(keys/N) when that is 0, so its region must hold that many
// stripe.EntrySize slots.
func (r *remote) init(what string, chans []*Channel, posture *PostureStats, keys int,
	credit *verbs.CreditConfig, qcfg verbs.QPConfig, stripe verbs.StripeConfig) error {
	if len(chans) == 0 {
		return fmt.Errorf("core: %s needs at least one channel", what)
	}
	slots := stripe.SlotsPerShard
	if slots == 0 {
		slots = (keys + len(chans) - 1) / len(chans)
	}
	r.shardBytes = slots * stripe.EntrySize
	for _, ch := range chans {
		if r.shardBytes > ch.Size {
			return fmt.Errorf("core: %s needs %d bytes per region, channel %d has %d",
				what, r.shardBytes, ch.ID, ch.Size)
		}
	}
	r.chans, r.sw, r.posture = chans, chans[0].sw, posture
	r.byQPN = make(map[uint32]int, len(chans))
	r.credits = make([]*verbs.Credits, len(chans))
	qps := make([]*verbs.QP, len(chans))
	for i, ch := range chans {
		r.byQPN[ch.ID] = i
		if credit != nil {
			r.credits[i] = ch.EnsureCredits(*credit)
		}
		qps[i] = verbs.NewQP(ch, r.credits[i], qcfg)
	}
	r.striped = verbs.NewStriped(qps, stripe)
	return nil
}

// Transport exposes the striped work queue for introspection (gem.Stats,
// per-shard tests, the supervisor's error source).
func (r *remote) Transport() *verbs.StripedQP { return r.striped }

// ShardCredits exposes shard si's admission window (nil when unmetered).
func (r *remote) ShardCredits(si int) *verbs.Credits { return r.credits[si] }

// shardOf routes a response by its destination QPN. A QPN the primitive no
// longer owns — a channel it was rebound away from — has no shard: every
// channel's PSN space starts at 0, so matching its late answers against the
// new channel's work would retire requests that are still in flight.
func (r *remote) shardOf(qpn uint32) (int, bool) {
	si, ok := r.byQPN[qpn]
	return si, ok
}

// rebind moves shard si's routing and admission window to ch; the window's
// configuration carries across, an unmetered shard stays unmetered. It
// returns the new window. What happens to the shard's in-flight work is the
// primitive's policy.
func (r *remote) rebind(si int, ch *Channel) *verbs.Credits {
	if r.shardBytes > ch.Size {
		panic(fmt.Sprintf("core: rebind target region too small: %d < %d", ch.Size, r.shardBytes))
	}
	delete(r.byQPN, r.chans[si].ID)
	r.chans[si] = ch
	r.byQPN[ch.ID] = si
	if cr := r.credits[si]; cr != nil {
		r.credits[si] = ch.EnsureCredits(cr.Config())
	}
	return r.credits[si]
}

// SetDegraded enters (true) or leaves (false) the degraded posture, in which
// the primitive sends nothing remote. Each edge counts once.
func (r *remote) SetDegraded(on bool) {
	if on && !r.degraded {
		r.posture.DegradedEntries++
	} else if !on && r.degraded {
		r.posture.DegradedExits++
	}
	r.degraded = on
}

// setMode records a consistency-mode change.
func (r *remote) setMode(m ConsistencyMode) {
	if m != r.mode {
		r.posture.ModeChanges++
	}
	r.mode = m
}

// SetConsistencyMode maps the consistency spectrum onto the two postures a
// primitive without reconcilable local state has: Eventual serves without
// remote memory (degraded), Strict and BoundedStaleness use it — there is no
// local copy whose staleness could be bounded, so the bound is ignored. The
// state store, which has such a copy, overrides this.
func (r *remote) SetConsistencyMode(m ConsistencyMode, _ StalenessBound) {
	r.setMode(m)
	r.SetDegraded(m == Eventual)
}
