package gem

import (
	"gem/internal/core"
	"gem/internal/core/verbs"
)

// StatsSnapshot is a flat, comparable aggregate of every robustness counter
// the testbed exposes: recovery (retransmits, failovers, degraded modes),
// admission (credits, sheds, gate bypasses) and replication.
// Two runs with the same seed must produce identical snapshots.
type StatsSnapshot struct {
	// Recovery (reliability + failover extensions).
	Retransmits  int64
	NaksSeen     int64
	Resyncs      int64
	Escalations  int64
	Retargeted   int64
	RTTSamples   int64
	Failovers    int64
	Failbacks    int64
	StaleDropped int64

	// Degraded-mode plumbing across all primitives.
	DegradedEntries  int64
	DegradedExits    int64
	Reconciles       int64
	DegradedUpdates  int64
	DegradedMisses   int64
	DegradedBypassed int64

	// Credit admission across all channels.
	CreditAcquired    int64
	CreditRefused     int64
	CreditReleased    int64
	CreditGateEntries int64
	CreditGateExits   int64
	CreditPeak        int64 // max over channels, not a sum

	// Priority load shedding (each shed is counted, never silent).
	ShedUpdates      int64 // state store: low-priority updates refused
	ShedFrames       int64 // packet buffer: low-priority frames dropped
	ShedMisses       int64 // lookup table: low-priority misses dropped
	PressureBypassed int64 // packet buffer: high-priority ordering bypasses
	CreditFallbacks  int64 // lookup table: high-priority slow-path fallbacks

	// Consistency spectrum (zero unless a mode was relaxed).
	ModeChanges  int64 // SetConsistencyMode transitions across all primitives
	BoundFlushes int64 // state store: flushes initiated by a staleness bound

	// Channel-level refusals.
	CapDrops    int64
	InjectDrops int64

	// Replication (zero unless a shard was Replicated).
	FailoverForcedNoops int64 // ForceFailover calls while already Exhausted
	ScrubChecked        int64 // anti-entropy chunks compared
	ScrubRepairs        int64 // chunks copied primary → replica

	// Transport folds every primitive's work-queue counters into one block:
	// posted/completed/stale/retried/refused/expired per operation type,
	// typed error classes, latency, and — for replicated stores — the
	// mirror's posting/lag/loss counters (Transport.Mirror).
	Transport verbs.Stats
}

// Stats walks every registered response handler (following Retransmitter
// and Failover inner chains) and every established channel, and folds their
// counters into one snapshot — the satellite observability surface: one
// call, every robustness counter.
func (tb *Testbed) Stats() StatsSnapshot {
	var snap StatsSnapshot
	seen := make(map[core.ResponseHandler]bool)
	var visit func(h core.ResponseHandler)
	visit = func(h core.ResponseHandler) {
		switch h.(type) {
		case *core.Retransmitter, *core.Failover, *core.StateStore, *core.LookupTable, *core.PacketBuffer:
			if seen[h] {
				return
			}
			seen[h] = true
		default:
			return
		}
		switch v := h.(type) {
		case *core.Retransmitter:
			snap.Retransmits += v.Retransmits
			snap.NaksSeen += v.NaksSeen
			snap.Resyncs += v.Resyncs
			snap.Escalations += v.Escalations
			snap.Retargeted += v.Retargeted
			snap.RTTSamples += v.RTTSamples
			visit(v.Inner)
		case *core.Failover:
			snap.Failovers += v.Failovers
			snap.Failbacks += v.Failbacks
			snap.StaleDropped += v.StaleDropped
			snap.FailoverForcedNoops += v.ForcedWhileExhausted
			visit(v.Inner)
		case *core.StateStore:
			snap.Reconciles += v.Stats.Reconciles
			snap.DegradedUpdates += v.Stats.DegradedUpdates
			snap.ShedUpdates += v.Stats.ShedUpdates
			snap.BoundFlushes += v.Stats.BoundFlushes
			t := v.Transport().Stats()
			t.Mirror = v.MirrorStats()
			snap.addPrimitive(v.Stats.PostureStats, t)
		case *core.LookupTable:
			snap.DegradedMisses += v.Stats.DegradedMisses
			snap.ShedMisses += v.Stats.ShedMisses
			snap.CreditFallbacks += v.Stats.CreditFallbacks
			snap.addPrimitive(v.Stats.PostureStats, v.Transport().Stats())
		case *core.PacketBuffer:
			snap.DegradedBypassed += v.Stats.DegradedBypassed
			snap.ShedFrames += v.Stats.ShedLowPrio
			snap.PressureBypassed += v.Stats.PressureBypassed
			snap.addPrimitive(v.Stats.PostureStats, v.Transport().Stats())
		}
	}
	for _, h := range tb.Dispatcher.Handlers() {
		visit(h)
	}
	for _, ch := range tb.chans {
		snap.CapDrops += ch.CapDrops
		snap.InjectDrops += ch.InjectDrops
		if cr := ch.Credits(); cr != nil {
			snap.CreditAcquired += cr.Stats.Acquired
			snap.CreditRefused += cr.Stats.Refused
			snap.CreditReleased += cr.Stats.Released
			snap.CreditGateEntries += cr.Stats.GateEntries
			snap.CreditGateExits += cr.Stats.GateExits
			if cr.Stats.Peak > snap.CreditPeak {
				snap.CreditPeak = cr.Stats.Peak
			}
		}
	}
	for _, sc := range tb.scrubbers {
		snap.ScrubChecked += sc.Stats.ChunksChecked
		snap.ScrubRepairs += sc.Stats.Repairs
	}
	return snap
}

// addPrimitive folds what every primitive reports alike: its posture edges
// and its transport counters.
func (s *StatsSnapshot) addPrimitive(p core.PostureStats, t verbs.Stats) {
	s.DegradedEntries += p.DegradedEntries
	s.DegradedExits += p.DegradedExits
	s.ModeChanges += p.ModeChanges
	s.Transport = s.Transport.Add(t)
}
