package core

import (
	"gem/internal/core/verbs"
	"gem/internal/sim"
)

// Supervisor is the self-healing half of the consistency spectrum: a
// per-target health state machine that watches the typed error completions
// the transport now surfaces (plus retransmitter backoff, failover liveness
// and remote-memory pressure) and automatically relaxes a primitive's
// ConsistencyMode under faults or overload, then drives Reconcile and
// restores the strict contract once the fault clears. It replaces the
// hand-pulled SetDegraded levers the test harnesses used to operate.
//
// Health runs Healthy → Suspect → Degraded → Recovering → Healthy with
// hysteresis: error *rates* (per-tick deltas of ErrStats.Total) move a
// target down the ladder immediately, while climbing back requires a run of
// consecutive clean ticks — so one good tick in the middle of an outage
// never snaps the contract back to strict.

// HealthState is one target's position in the supervisor's state machine.
type HealthState uint8

const (
	// Healthy: no recent typed errors; the base (strict) contract applies.
	Healthy HealthState = iota
	// Suspect: an error rate or pressure signal crossed the suspect
	// threshold; the target runs under BoundedStaleness while the supervisor
	// watches whether the condition clears or worsens.
	Suspect
	// Degraded: the fault is real (error rate at the degrade threshold,
	// retry budget exhausted, failover out of standbys); the target runs
	// under Eventual and absorbs updates locally.
	Degraded
	// Recovering: the fault cleared; Reconcile has been driven and the
	// backlog is converging under BoundedStaleness. Any new error drops the
	// target straight back to Degraded.
	Recovering
)

// String names the state for tables and diagnostics.
func (h HealthState) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Degraded:
		return "degraded"
	case Recovering:
		return "recovering"
	}
	return "unknown"
}

// The ladder's fixed thresholds. Each state applies one mode: Healthy
// Strict, Suspect and Recovering BoundedStaleness (with the bound the
// target's primitive fills in), Degraded Eventual.
const (
	// suspectErrors is the per-tick typed-error delta that moves a Healthy
	// target to Suspect: any error is worth watching.
	suspectErrors = 1
	// suspectBackoff is the retransmitter backoff level (consecutive
	// no-progress timeout rounds) treated as a suspect signal.
	suspectBackoff = 2
	// recoverTicks is the consecutive clean ticks a Degraded target needs
	// before the supervisor drives Reconcile and enters Recovering.
	recoverTicks = 3
	// healthyTicks is the consecutive clean ticks a Suspect or Recovering
	// target needs to return to Healthy.
	healthyTicks = 3
)

// SupervisorConfig tunes the health state machine.
type SupervisorConfig struct {
	// Interval paces the evaluation ticks (default 20 µs).
	Interval sim.Duration
	// DegradeErrors is the per-tick typed-error delta that moves a target to
	// Degraded (default 4).
	DegradeErrors int64
	// PressureTier is the remote-memory pressure tier treated as a suspect
	// signal (default 2, the top of MirrorLagTier's scale).
	PressureTier int
}

func (c *SupervisorConfig) fillDefaults() {
	if c.Interval <= 0 {
		c.Interval = 20 * sim.Microsecond
	}
	if c.DegradeErrors <= 0 {
		c.DegradeErrors = 4
	}
	if c.PressureTier <= 0 {
		c.PressureTier = 2
	}
}

// SupervisorTarget wires one governed primitive into the state machine:
// signal sources on one side, mode and recovery actuators on the other.
type SupervisorTarget struct {
	// Name labels the target in State lookups and experiment tables.
	Name string
	// Errors is the typed-error source — typically StripedQP.Errors (the
	// per-shard CQ error counters merged). Required.
	Errors func() verbs.ErrStats
	// Exhausted, when set, is the liveness veto: while true (retransmitter
	// retry budget spent, failover out of standbys) no tick counts as clean,
	// so the target cannot start recovering against a dead peer.
	Exhausted func() bool
	// Backoff, when set, reports the retransmitter's backoff level; at or
	// above suspectBackoff it is a suspect signal.
	Backoff func() int
	// Pressure, when set, reports the remote-memory pressure tier; at or
	// above PressureTier it is a suspect signal.
	Pressure func() int
	// Apply switches the primitive's consistency mode. Required.
	Apply func(ConsistencyMode, StalenessBound)
	// Degrade, when set, engages the primitive's degraded posture alongside
	// the Degraded health state (e.g. StateStore.SetDegraded) — the automatic
	// replacement for the hand-pulled lever. Recover is expected to release
	// it (Reconcile does), keeping the DegradedExits accounting on its single
	// exit edge.
	Degrade func(bool)
	// Recover converges local state with remote memory (e.g.
	// StateStore.Reconcile); driven once on every Degraded → Recovering
	// transition.
	Recover func()
}

// SupervisorStats are the state machine's observable counters — flat and
// comparable for experiment results.
type SupervisorStats struct {
	Ticks           int64
	SuspectEntries  int64
	DegradedEntries int64
	// Recoveries counts Degraded → Recovering transitions (each drove the
	// target's Recover hook).
	Recoveries     int64
	HealthyReturns int64
	// ModeApplies counts actuator invocations (one per state entry).
	ModeApplies int64
}

type supTarget struct {
	SupervisorTarget
	state    HealthState
	lastErrs int64
	clean    int
}

// Supervisor runs the health state machine over its governed targets. Not
// safe for concurrent use; the simulation is single-threaded per engine.
type Supervisor struct {
	eng     *sim.Engine
	cfg     SupervisorConfig
	targets []*supTarget
	started bool
	stopped bool

	Stats SupervisorStats
}

// NewSupervisor builds a supervisor on eng with cfg's thresholds.
func NewSupervisor(eng *sim.Engine, cfg SupervisorConfig) *Supervisor {
	cfg.fillDefaults()
	return &Supervisor{eng: eng, cfg: cfg}
}

// Govern adds a target (starting Healthy) and returns its index for State.
// The target's base mode is applied immediately so primitive and supervisor
// agree on the starting contract.
func (s *Supervisor) Govern(t SupervisorTarget) int {
	st := &supTarget{SupervisorTarget: t}
	if t.Errors != nil {
		st.lastErrs = t.Errors().Total()
	}
	s.targets = append(s.targets, st)
	s.apply(st, Strict)
	return len(s.targets) - 1
}

// State reports target i's health.
func (s *Supervisor) State(i int) HealthState { return s.targets[i].state }

// Start begins evaluation ticks. Call once after governing the targets.
func (s *Supervisor) Start() {
	if s.started {
		return
	}
	s.started = true
	s.eng.Ticker(s.cfg.Interval, func() bool {
		if s.stopped {
			return false
		}
		s.tick()
		return true
	})
}

// Stop ends evaluation at the next tick, releasing the event queue so the
// simulation can wind down to quiescence (same contract as Failover.Stop).
func (s *Supervisor) Stop() { s.stopped = true }

func (s *Supervisor) tick() {
	s.Stats.Ticks++
	for _, t := range s.targets {
		s.evaluate(t)
	}
}

func (s *Supervisor) evaluate(t *supTarget) {
	var delta int64
	if t.Errors != nil {
		total := t.Errors().Total()
		delta = total - t.lastErrs
		t.lastErrs = total
	}
	exhausted := t.Exhausted != nil && t.Exhausted()
	backedOff := t.Backoff != nil && t.Backoff() >= suspectBackoff
	pressured := t.Pressure != nil && t.Pressure() >= s.cfg.PressureTier
	faulted := delta >= s.cfg.DegradeErrors || exhausted
	warning := delta >= suspectErrors || backedOff || pressured
	clean := delta == 0 && !exhausted && !backedOff && !pressured

	switch t.state {
	case Healthy:
		if faulted {
			s.enter(t, Degraded)
		} else if warning {
			s.enter(t, Suspect)
		}
	case Suspect:
		if faulted {
			s.enter(t, Degraded)
			return
		}
		if !clean {
			t.clean = 0
			return
		}
		t.clean++
		if t.clean >= healthyTicks {
			s.enter(t, Healthy)
		}
	case Degraded:
		if !clean {
			t.clean = 0
			return
		}
		t.clean++
		if t.clean >= recoverTicks {
			s.enter(t, Recovering)
		}
	case Recovering:
		// Recovery has no tolerance: any error while converging drops the
		// target straight back to Degraded.
		if delta > 0 || exhausted {
			s.enter(t, Degraded)
			return
		}
		t.clean++
		if t.clean >= healthyTicks {
			s.enter(t, Healthy)
		}
	}
}

func (s *Supervisor) enter(t *supTarget, st HealthState) {
	t.state = st
	t.clean = 0
	switch st {
	case Healthy:
		s.Stats.HealthyReturns++
		s.apply(t, Strict)
	case Suspect:
		s.Stats.SuspectEntries++
		s.apply(t, BoundedStaleness)
	case Degraded:
		s.Stats.DegradedEntries++
		if t.Degrade != nil {
			t.Degrade(true)
		}
		s.apply(t, Eventual)
	case Recovering:
		s.Stats.Recoveries++
		if t.Recover != nil {
			t.Recover()
		}
		s.apply(t, BoundedStaleness)
	}
}

func (s *Supervisor) apply(t *supTarget, m ConsistencyMode) {
	if t.Apply == nil {
		return
	}
	s.Stats.ModeApplies++
	t.Apply(m, StalenessBound{})
}

// governed is what Govern needs of a primitive: the shared remote core's
// error source and posture levers, and the primitive's own Reconcile.
type governed interface {
	Transport() *verbs.StripedQP
	SetConsistencyMode(ConsistencyMode, StalenessBound)
	SetDegraded(bool)
	Reconcile()
}

// Govern wires a primitive as a supervisor target: typed errors from its
// striped QP, modes through SetConsistencyMode, the degraded posture through
// SetDegraded, recovery through Reconcile. Liveness comes from the failover
// group fo (nil = none) running out of standbys and, for a state store,
// from its retransmitters' retry budgets; their backoff is a suspect signal.
// A state store's worst replica lag feeds the pressure signal (MirrorLagTier:
// half the lag bound is tier 1, past the bound tier 2), so a mirror falling
// behind walks the store toward Suspect → Degraded exactly like memory
// pressure does; typed CQReplicaLost completions already count as errors.
func Govern(name string, p governed, fo *Failover) SupervisorTarget {
	var rts []*Retransmitter
	t := SupervisorTarget{
		Name:    name,
		Errors:  p.Transport().Errors,
		Apply:   p.SetConsistencyMode,
		Degrade: p.SetDegraded,
		Recover: p.Reconcile,
	}
	if ss, ok := p.(*StateStore); ok {
		rts = ss.rts
		t.Pressure = ss.MirrorLagTier
	}
	t.Exhausted = func() bool {
		if fo != nil && fo.Exhausted {
			return true
		}
		for _, rt := range rts {
			if rt != nil && rt.Exhausted() {
				return true
			}
		}
		return false
	}
	t.Backoff = func() int {
		max := 0
		for _, rt := range rts {
			if rt != nil && rt.BackoffLevel() > max {
				max = rt.BackoffLevel()
			}
		}
		return max
	}
	return t
}
