package gem

// Remote-memory pressure: per-server occupancy tiers and watermark-steered
// region allocation.
//
// The paper sizes remote memory generously ("more than 10GB packet buffer"),
// but a deployed switch shares that DRAM across primitives and tenants. This
// file adds the operator-side machinery: an Allocator that places channel
// regions on the least-loaded eligible server and refuses placements past a
// high watermark, and a PressureMonitor that folds per-server occupancy
// gauges into a three-tier pressure signal the data plane consumes (the
// packet buffer's AdmitGate) and operators export (Stats).

import (
	"fmt"

	"gem/internal/core"
	"gem/internal/core/verbs"
)

// PressureTier is the coarse remote-memory health signal.
type PressureTier int

const (
	// PressureNormal: occupancy below the elevated watermark.
	PressureNormal PressureTier = iota
	// PressureElevated: approaching capacity; new spills should steer away.
	PressureElevated
	// PressureCritical: past the high watermark; refuse new remote work.
	PressureCritical
)

// String implements fmt.Stringer.
func (t PressureTier) String() string {
	switch t {
	case PressureNormal:
		return "normal"
	case PressureElevated:
		return "elevated"
	case PressureCritical:
		return "critical"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// PressureConfig tunes the monitor's watermarks, as fractions of capacity.
type PressureConfig struct {
	// ElevatedFrac raises a server to PressureElevated (default 0.70).
	ElevatedFrac float64
	// CriticalFrac raises a server to PressureCritical (default 0.90).
	CriticalFrac float64
	// HysteresisFrac is how far occupancy must drop below a raise threshold
	// before the tier falls back (default 0.05), preventing tier flapping.
	HysteresisFrac float64
}

func (c *PressureConfig) fillDefaults() {
	if c.ElevatedFrac == 0 {
		c.ElevatedFrac = 0.70
	}
	if c.CriticalFrac == 0 {
		c.CriticalFrac = 0.90
	}
	if c.HysteresisFrac == 0 {
		c.HysteresisFrac = 0.05
	}
}

// PressureStats are the monitor's observable counters.
type PressureStats struct {
	TierRaises int64 // tier transitions toward critical
	TierDrops  int64 // tier transitions toward normal
}

type serverPressure struct {
	capacity int64
	gauges   []func() int64
	tier     PressureTier
	peakFrac float64
}

// PressureMonitor tracks per-server remote-memory occupancy against
// watermarks with hysteresis. Occupancy is pull-based: primitives register
// gauges (e.g. PacketBuffer.ChannelOccupancyBytes) and the monitor sums them
// on evaluation, so there is no bookkeeping on the data path.
type PressureMonitor struct {
	cfg     PressureConfig
	servers []*serverPressure

	Stats PressureStats
}

// NewPressureMonitor returns a monitor with cfg's watermarks.
func NewPressureMonitor(cfg PressureConfig) *PressureMonitor {
	cfg.fillDefaults()
	return &PressureMonitor{cfg: cfg}
}

// AddServer registers memory server mem with the given byte capacity.
// Servers must be added in index order starting at 0.
func (m *PressureMonitor) AddServer(mem int, capacity int64) {
	if mem != len(m.servers) {
		panic(fmt.Sprintf("gem: pressure servers must be added in order (got %d, want %d)",
			mem, len(m.servers)))
	}
	m.servers = append(m.servers, &serverPressure{capacity: capacity})
}

// AddGauge registers an occupancy source for server mem; the monitor sums
// all of a server's gauges on each evaluation.
func (m *PressureMonitor) AddGauge(mem int, gauge func() int64) {
	m.servers[mem].gauges = append(m.servers[mem].gauges, gauge)
}

// Occupancy sums server mem's gauges.
func (m *PressureMonitor) Occupancy(mem int) int64 {
	var total int64
	for _, g := range m.servers[mem].gauges {
		total += g()
	}
	return total
}

// Frac returns server mem's occupancy as a fraction of capacity.
func (m *PressureMonitor) Frac(mem int) float64 {
	s := m.servers[mem]
	if s.capacity <= 0 {
		return 0
	}
	return float64(m.Occupancy(mem)) / float64(s.capacity)
}

// Tier evaluates and returns server mem's pressure tier: raises happen at
// the watermark, drops only after occupancy falls HysteresisFrac below it.
func (m *PressureMonitor) Tier(mem int) PressureTier {
	s := m.servers[mem]
	frac := m.Frac(mem)
	if frac > s.peakFrac {
		s.peakFrac = frac
	}
	want := PressureNormal
	switch {
	case frac >= m.cfg.CriticalFrac:
		want = PressureCritical
	case frac >= m.cfg.ElevatedFrac:
		want = PressureElevated
	}
	if want > s.tier {
		m.Stats.TierRaises += int64(want - s.tier)
		s.tier = want
		return s.tier
	}
	// Dropping a tier requires clearing the raise threshold by the
	// hysteresis margin, one tier at a time.
	for want < s.tier {
		var raiseAt float64
		if s.tier == PressureCritical {
			raiseAt = m.cfg.CriticalFrac
		} else {
			raiseAt = m.cfg.ElevatedFrac
		}
		if frac > raiseAt-m.cfg.HysteresisFrac {
			break
		}
		s.tier--
		m.Stats.TierDrops++
	}
	return s.tier
}

// GlobalTier evaluates every server and returns the worst tier — the
// single pressure signal an operator dashboard would alarm on.
func (m *PressureMonitor) GlobalTier() PressureTier {
	worst := PressureNormal
	for i := range m.servers {
		if t := m.Tier(i); t > worst {
			worst = t
		}
	}
	return worst
}

// PeakFrac reports the highest occupancy fraction server mem ever reached
// (updated on each Tier evaluation).
func (m *PressureMonitor) PeakFrac(mem int) float64 { return m.servers[mem].peakFrac }

// SetPressureMonitor installs m as the testbed's pressure source; Stats
// folds its tier counters into the snapshot.
func (tb *Testbed) SetPressureMonitor(m *PressureMonitor) { tb.monitor = m }

// AllocatorConfig tunes a remote-region allocator.
type AllocatorConfig struct {
	// PerServerBytes is each memory server's region budget.
	PerServerBytes int
	// HighWaterFrac refuses placements that would push a server past this
	// fraction of its budget (default 0.9).
	HighWaterFrac float64
	// RegionBase is the first virtual address handed out on each server
	// (default 0x10000000).
	RegionBase uint64
}

// Allocator places channel regions across the testbed's memory servers,
// steering toward the least-loaded eligible server and refusing placements
// past the high watermark — admission control for remote memory itself,
// complementing the per-channel credit windows on the request path.
type Allocator struct {
	tb  *Testbed
	cfg AllocatorConfig

	allocated []int    // bytes placed per server
	nextBase  []uint64 // next region base per server

	// Refusals counts allocations refused because no server had room
	// below the watermark; Steered counts allocations that were diverted
	// from the first eligible server to a less-loaded one. Replicated
	// counts primary+replica pairs placed by AllocateReplicated.
	Refusals   int64
	Steered    int64
	Replicated int64
}

// NewAllocator returns an allocator over the testbed's memory servers.
func (tb *Testbed) NewAllocator(cfg AllocatorConfig) (*Allocator, error) {
	if cfg.PerServerBytes <= 0 {
		return nil, fmt.Errorf("gem: allocator needs a positive per-server budget")
	}
	if cfg.HighWaterFrac == 0 {
		cfg.HighWaterFrac = 0.9
	}
	if cfg.RegionBase == 0 {
		cfg.RegionBase = 0x10000000
	}
	a := &Allocator{
		tb: tb, cfg: cfg,
		allocated: make([]int, len(tb.MemNICs)),
		nextBase:  make([]uint64, len(tb.MemNICs)),
	}
	for i := range a.nextBase {
		a.nextBase[i] = cfg.RegionBase
	}
	return a, nil
}

// Allocated reports the bytes placed on server mem.
func (a *Allocator) Allocated(mem int) int { return a.allocated[mem] }

// pick runs the placement policy: the least-loaded server that stays below
// the high watermark, skipping exclude (-1 = no exclusion). It returns the
// chosen server and the first eligible one (for the steering counter), or
// -1 when no server qualifies.
func (a *Allocator) pick(size, exclude int) (chosen, firstEligible int) {
	limit := int(a.cfg.HighWaterFrac * float64(a.cfg.PerServerBytes))
	chosen, firstEligible = -1, -1
	for i := range a.allocated {
		if i == exclude || a.allocated[i]+size > limit {
			continue
		}
		if firstEligible < 0 {
			firstEligible = i
		}
		if chosen < 0 || a.allocated[i] < a.allocated[chosen] {
			chosen = i
		}
	}
	return chosen, firstEligible
}

// place establishes a size-byte region on server mem per spec.
func (a *Allocator) place(mem, size int, spec ChannelSpec) (*Channel, error) {
	spec.RegionSize = size
	spec.RegionBase = a.nextBase[mem]
	ch, err := a.tb.Establish(mem, spec)
	if err != nil {
		return nil, err
	}
	a.allocated[mem] += size
	a.nextBase[mem] += uint64(size)
	return ch, nil
}

// Allocate establishes a channel with a size-byte region on the
// least-loaded server that stays below the high watermark, returning the
// channel and the chosen server index. spec's RegionSize and RegionBase are
// overridden by the allocator.
func (a *Allocator) Allocate(size int, spec ChannelSpec) (*Channel, int, error) {
	if size <= 0 {
		return nil, -1, fmt.Errorf("gem: allocate needs a positive size")
	}
	chosen, firstEligible := a.pick(size, -1)
	if chosen < 0 {
		a.Refusals++
		return nil, -1, fmt.Errorf("gem: no memory server below watermark for %d bytes", size)
	}
	if chosen != firstEligible {
		a.Steered++
	}
	ch, err := a.place(chosen, size, spec)
	if err != nil {
		return nil, -1, err
	}
	return ch, chosen, nil
}

// AllocateReplicated places a primary and a replica region of the same size
// with anti-affinity: the replica is never co-located with its primary (a
// replica on the same DRAM dies with it). Both placements follow the
// least-loaded-below-watermark policy, the replica's choice simply
// excluding the primary's server; both are chosen before either is
// established, so a refusal leaves no half-placed pair.
func (a *Allocator) AllocateReplicated(size int, spec ChannelSpec) (primary, replica *Channel, pMem, rMem int, err error) {
	if size <= 0 {
		return nil, nil, -1, -1, fmt.Errorf("gem: allocate needs a positive size")
	}
	if len(a.allocated) < 2 {
		a.Refusals++
		return nil, nil, -1, -1, fmt.Errorf("gem: anti-affine replication needs at least two memory servers")
	}
	pMem, pFirst := a.pick(size, -1)
	if pMem < 0 {
		a.Refusals++
		return nil, nil, -1, -1, fmt.Errorf("gem: no memory server below watermark for %d bytes", size)
	}
	rMem, _ = a.pick(size, pMem)
	if rMem < 0 {
		a.Refusals++
		return nil, nil, -1, -1, fmt.Errorf("gem: no anti-affine server below watermark for a %d-byte replica", size)
	}
	if pMem != pFirst {
		a.Steered++
	}
	if primary, err = a.place(pMem, size, spec); err != nil {
		return nil, nil, -1, -1, err
	}
	if replica, err = a.place(rMem, size, spec); err != nil {
		return nil, nil, -1, -1, err
	}
	a.Replicated++
	return primary, replica, pMem, rMem, nil
}

// StatsSnapshot is a flat, comparable aggregate of every robustness counter
// the testbed exposes: recovery (retransmits, failovers, degraded modes),
// admission (credits, sheds) and remote-memory pressure. Two runs with the
// same seed must produce identical snapshots.
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

	// Remote-memory pressure (zero unless SetPressureMonitor was called).
	PressureTierRaises int64
	PressureTierDrops  int64
	PressureGlobalTier int

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

// Add merges another snapshot into a copy of s, for aggregating across
// independent testbeds. Counters sum; the peak/tier fields take the max.
func (s StatsSnapshot) Add(o StatsSnapshot) StatsSnapshot {
	r := s
	r.Retransmits += o.Retransmits
	r.NaksSeen += o.NaksSeen
	r.Resyncs += o.Resyncs
	r.Escalations += o.Escalations
	r.Retargeted += o.Retargeted
	r.RTTSamples += o.RTTSamples
	r.Failovers += o.Failovers
	r.Failbacks += o.Failbacks
	r.StaleDropped += o.StaleDropped
	r.DegradedEntries += o.DegradedEntries
	r.DegradedExits += o.DegradedExits
	r.Reconciles += o.Reconciles
	r.DegradedUpdates += o.DegradedUpdates
	r.DegradedMisses += o.DegradedMisses
	r.DegradedBypassed += o.DegradedBypassed
	r.CreditAcquired += o.CreditAcquired
	r.CreditRefused += o.CreditRefused
	r.CreditReleased += o.CreditReleased
	r.CreditGateEntries += o.CreditGateEntries
	r.CreditGateExits += o.CreditGateExits
	if o.CreditPeak > r.CreditPeak {
		r.CreditPeak = o.CreditPeak
	}
	r.ShedUpdates += o.ShedUpdates
	r.ShedFrames += o.ShedFrames
	r.ShedMisses += o.ShedMisses
	r.PressureBypassed += o.PressureBypassed
	r.CreditFallbacks += o.CreditFallbacks
	r.ModeChanges += o.ModeChanges
	r.BoundFlushes += o.BoundFlushes
	r.CapDrops += o.CapDrops
	r.InjectDrops += o.InjectDrops
	r.PressureTierRaises += o.PressureTierRaises
	r.PressureTierDrops += o.PressureTierDrops
	if o.PressureGlobalTier > r.PressureGlobalTier {
		r.PressureGlobalTier = o.PressureGlobalTier
	}
	r.FailoverForcedNoops += o.FailoverForcedNoops
	r.ScrubChecked += o.ScrubChecked
	r.ScrubRepairs += o.ScrubRepairs
	r.Transport = r.Transport.Add(o.Transport)
	return r
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
	if tb.monitor != nil {
		snap.PressureGlobalTier = int(tb.monitor.GlobalTier())
		snap.PressureTierRaises = tb.monitor.Stats.TierRaises
		snap.PressureTierDrops = tb.monitor.Stats.TierDrops
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
