package harness

import (
	"fmt"

	"gem"
	"gem/internal/sim"
)

// E12 is the consistency-spectrum experiment: the degraded postures that E9
// toggled by hand become an automatic, observable policy. Two scenario
// families share one seed:
//
//   - E12a (self-healing failover): the E9b fault schedule — primary crash,
//     retry-budget escalation, forced failover to a standby, failback on
//     restart — with a consistency supervisor governing the state store.
//     Nothing in the scenario calls SetDegraded: the supervisor watches the
//     typed error completions (RetryExhausted, Canceled) and the
//     retransmitter's backoff level, walks Healthy → Suspect → Degraded on
//     its own, drives Reconcile on the Degraded → Recovering edge, and
//     returns the store to the strict contract. The DegradedExits counter
//     moving with zero manual SetDegraded calls is the tentpole invariant.
//   - E12b (spectrum under overload): the E10 fast FAA storm replayed three
//     times with the store pinned to Strict, BoundedStaleness, and Eventual.
//     Strict sheds low-priority updates at the admission edge; bounded
//     proceeds on the local copy and flushes before MaxAge/MaxDelta trips
//     (the recorded staleness never exceeds the bound); eventual absorbs the
//     whole stream and reconciles opportunistically, committing strictly
//     more FAA work than strict for far fewer wire operations. A supervisor
//     governs the lookup table in every arm, so overload-driven automatic
//     degradation (credit refusals → Suspect/Degraded → CPU slow path) runs
//     alongside the manual spectrum sweep.

// E12Config parameterizes the consistency-spectrum experiment.
type E12Config struct {
	// Seed drives every random model in both scenarios.
	Seed int64

	// E12a: self-healing failover.
	AUpdates   int
	ACrashAt   sim.Time
	ARestartAt sim.Time

	// E12b: the storm replayed across the spectrum.
	StormPackets  int
	StormInterval sim.Duration
	BoundMaxAge   sim.Duration
	BoundMaxDelta uint64
}

// DefaultE12Config returns the full-experiment settings.
func DefaultE12Config() E12Config {
	return E12Config{
		Seed:     12,
		AUpdates: 800, ACrashAt: at(200), ARestartAt: at(700),
		StormPackets: 800, StormInterval: 500 * sim.Nanosecond,
		BoundMaxAge: 50 * sim.Microsecond, BoundMaxDelta: 32,
	}
}

// E12ModePoint is one consistency mode's outcome under the FAA storm.
type E12ModePoint struct {
	Mode            string
	Updates         int64 // admitted by the store (sheds excluded)
	Shed            int64
	FAAIssued       int64
	Remote          uint64
	Pending         uint64
	Exact           bool // admitted == remote + pending after the drain
	BoundFlushes    int64
	MaxStalenessNs  int64
	MaxPendingDelta uint64
	ModeChanges     int64 // store-side transitions (the one pinning call)
	LtModeChanges   int64 // supervisor-driven lookup transitions
	SupSuspect      int64
	SupDegraded     int64
	SlowPathMisses  int64
}

// E12Result is flat and comparable: two runs with the same config must be
// identical (==).
type E12Result struct {
	// E12a.
	AUpdates         int64
	ACommitted       uint64 // remote counter sums across primary + standby
	APending         uint64
	ANoLoss          bool // committed + pending covers every admitted update
	AErrors          int64
	AEscalations     int64
	AFailovers       int64
	ADegradedEntries int64 // store posture edges — all supervisor-driven
	ADegradedExits   int64
	AReconciles      int64
	AModeChanges     int64
	ASupSuspect      int64
	ASupDegraded     int64
	ASupRecoveries   int64
	ASupHealthy      int64
	AFinalState      string
	// ASelfHealed pins the tentpole: the degraded posture was entered and
	// exited, recovery ran, and the target ended Healthy — with zero manual
	// SetDegraded calls anywhere in the scenario.
	ASelfHealed bool

	// E12b, in spectrum order: Strict, BoundedStaleness, Eventual.
	Spectrum [3]E12ModePoint
	// BoundedWithinBound: bound flushes happened and the recorded staleness
	// never exceeded the configured MaxAge.
	BoundedWithinBound bool
	// EventualBeatsStrict: eventual mode committed strictly more FAA work
	// (remote counter total) than strict under the identical storm.
	EventualBeatsStrict bool
	AllExact            bool

	// PendingEvents sums leftover event-queue entries; it must be 0.
	PendingEvents int
}

// e12a: the E9b failover bed, self-healing. The supervisor is the only actor
// touching the store's degraded posture: DegradeErrors=1 treats any typed
// error completion (the RetryExhausted escalation, Canceled in-flight FAAs at
// rebind) as a hard fault, and backoff climbing past two rounds is the
// Suspect signal.
func e12a(cfg E12Config, res *E12Result) {
	b := runFailoverBed(cfg.Seed, &gem.SupervisorConfig{DegradeErrors: 1},
		cfg.ACrashAt, cfg.ARestartAt, cfg.AUpdates, 1500*sim.Microsecond)
	ss, sup := b.ss, b.sup
	res.AUpdates = ss.Stats.Updates
	res.ACommitted = remoteSum(b.tb, ss, b.dataP, bedCounters) + remoteSum(b.tb, ss, b.dataS, bedCounters)
	res.APending = ss.PendingTotal()
	// Retargeting is at-least-once: duplicates may inflate the committed
	// sum, but nothing may be lost.
	res.ANoLoss = res.ACommitted+res.APending >= uint64(res.AUpdates)
	res.AErrors = ss.Transport().Errors().Total()
	res.AEscalations = b.rt.Escalations
	res.AFailovers = b.fo.Failovers
	res.ADegradedEntries = ss.Stats.DegradedEntries
	res.ADegradedExits = ss.Stats.DegradedExits
	res.AReconciles = ss.Stats.Reconciles
	res.AModeChanges = ss.Stats.ModeChanges
	res.ASupSuspect = sup.Stats.SuspectEntries
	res.ASupDegraded = sup.Stats.DegradedEntries
	res.ASupRecoveries = sup.Stats.Recoveries
	res.ASupHealthy = sup.Stats.HealthyReturns
	res.AFinalState = sup.State(0).String()
	res.ASelfHealed = res.ADegradedExits > 0 && res.ASupRecoveries > 0 &&
		res.AFinalState == "healthy"
	res.PendingEvents += b.tb.PendingEvents()
}

// e12storm replays the E10 lookup-miss + counter storm at the fast interval
// with the state store pinned to one consistency mode. The lookup table runs
// under a default-threshold supervisor in every arm, so credit refusals from
// the miss window drive its automatic Suspect/Degraded/slow-path cycle.
func e12storm(cfg E12Config, mode gem.ConsistencyMode, res *E12Result) E12ModePoint {
	b := newStormBed(cfg.Seed, false)
	ss, lt := b.ss, b.lt
	ss.SetConsistencyMode(mode, gem.StalenessBound{
		MaxAge: cfg.BoundMaxAge, MaxDelta: cfg.BoundMaxDelta,
	})
	sup := gem.NewSupervisor(b.tb.Engine, gem.SupervisorConfig{})
	sup.Govern(gem.Govern("lookup", lt, nil))
	sup.Start()
	b.start(cfg.StormInterval, cfg.StormPackets)
	b.tb.RunFor(cfg.StormInterval*sim.Duration(cfg.StormPackets) + 200*sim.Microsecond)
	sup.Stop()
	b.tb.Run()

	pt := E12ModePoint{Mode: mode.String()}
	pt.Remote = remoteSum(b.tb, ss, nil, stormCounters)
	pt.Pending = ss.PendingTotal()
	pt.Updates = ss.Stats.Updates
	pt.Shed = ss.Stats.ShedUpdates
	pt.FAAIssued = ss.Stats.FAAIssued
	pt.Exact = pt.Remote+pt.Pending == uint64(pt.Updates)
	pt.BoundFlushes = ss.Stats.BoundFlushes
	pt.MaxStalenessNs = ss.Stats.MaxStalenessNs
	pt.MaxPendingDelta = ss.Stats.MaxPendingDelta
	pt.ModeChanges = ss.Stats.ModeChanges
	pt.LtModeChanges = lt.Stats.ModeChanges
	pt.SupSuspect = sup.Stats.SuspectEntries
	pt.SupDegraded = sup.Stats.DegradedEntries
	pt.SlowPathMisses = lt.Stats.DegradedMisses
	res.PendingEvents += b.tb.PendingEvents()
	return pt
}

// RunE12 executes the consistency-spectrum experiment.
func RunE12(cfg E12Config) (*Table, E12Result) {
	var res E12Result
	e12a(cfg, &res)
	for i, mode := range []gem.ConsistencyMode{gem.Strict, gem.BoundedStaleness, gem.Eventual} {
		res.Spectrum[i] = e12storm(cfg, mode, &res)
	}
	res.AllExact = res.Spectrum[0].Exact && res.Spectrum[1].Exact && res.Spectrum[2].Exact
	res.BoundedWithinBound = res.Spectrum[1].BoundFlushes > 0 &&
		res.Spectrum[1].MaxStalenessNs <= int64(cfg.BoundMaxAge)
	res.EventualBeatsStrict = res.Spectrum[2].Remote > res.Spectrum[0].Remote

	t := &Table{
		ID:      "E12",
		Title:   "consistency spectrum: typed errors, automatic degrade/recover, staleness bounds",
		Columns: []string{"scenario", "invariant", "value", "detail"},
	}
	t.AddRow("a: self-healing failover", "auto degrade+recover",
		fmt.Sprintf("%v", res.ASelfHealed),
		fmt.Sprintf("%d typed errors, %d escalations, sup %d suspect / %d degraded / %d recoveries, %d degraded exits, final %s",
			res.AErrors, res.AEscalations, res.ASupSuspect, res.ASupDegraded,
			res.ASupRecoveries, res.ADegradedExits, res.AFinalState))
	t.AddRow("a: no update lost", "committed+pending covers all",
		fmt.Sprintf("%v", res.ANoLoss),
		fmt.Sprintf("%d updates, %d committed, %d pending, %d failovers",
			res.AUpdates, res.ACommitted, res.APending, res.AFailovers))
	for _, pt := range res.Spectrum {
		t.AddRow("b: storm "+pt.Mode, "admitted exact",
			fmt.Sprintf("%v", pt.Exact),
			fmt.Sprintf("%d admitted (%d shed), %d FAAs, %d remote, staleness %dns (%d bound flushes), peak delta %d",
				pt.Updates, pt.Shed, pt.FAAIssued, pt.Remote,
				pt.MaxStalenessNs, pt.BoundFlushes, pt.MaxPendingDelta))
	}
	t.AddRow("b: staleness bound", "max staleness <= MaxAge",
		fmt.Sprintf("%v", res.BoundedWithinBound),
		fmt.Sprintf("%dns <= %dns", res.Spectrum[1].MaxStalenessNs, int64(cfg.BoundMaxAge)))
	t.AddRow("b: throughput tradeoff", "eventual commits > strict",
		fmt.Sprintf("%v", res.EventualBeatsStrict),
		fmt.Sprintf("eventual %d remote / %d FAAs vs strict %d remote / %d FAAs",
			res.Spectrum[2].Remote, res.Spectrum[2].FAAIssued,
			res.Spectrum[0].Remote, res.Spectrum[0].FAAIssued))
	t.AddNote("no scenario calls SetDegraded: the supervisor reads typed CQE errors and backoff,")
	t.AddNote("relaxes the contract (strict -> bounded -> eventual) and reconciles on recovery")
	return t, res
}
