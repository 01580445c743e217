package harness

import (
	"strings"
	"testing"

	"gem/internal/sim"
	"gem/internal/wire"
)

// The harness tests assert the *shapes* the paper reports — who wins, by
// roughly what factor, where the knees are — at reduced settings so the
// whole suite stays fast.

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddNote("n%d", 1)
	s := tab.String()
	for _, want := range []string{"== X: demo ==", "a", "bb", "note: n1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func quickE1() E1Config {
	cfg := DefaultE1Config()
	cfg.Window = 1 * sim.Millisecond
	cfg.SweepStart, cfg.SweepStep = 33, 1
	cfg.DrainFrames = 2000
	return cfg
}

func TestE1Shapes(t *testing.T) {
	_, res := RunE1(quickE1())
	// Store path lands near the NIC write ceiling, in the mid-30s.
	if res.StoreMaxGbps < 30 || res.StoreMaxGbps > 38 {
		t.Fatalf("store max = %.1f Gbps, want mid-30s", res.StoreMaxGbps)
	}
	// Load+forward beats store (paper: 37.4 > 34.1).
	if res.ForwardGbps <= res.StoreMaxGbps {
		t.Fatalf("forward %.1f <= store %.1f; paper has forward faster",
			res.ForwardGbps, res.StoreMaxGbps)
	}
	// Native baseline is at least as fast as the primitive's store path.
	if res.NativeWriteGbps < res.StoreMaxGbps-0.5 {
		t.Fatalf("native write %.1f clearly below store %.1f",
			res.NativeWriteGbps, res.StoreMaxGbps)
	}
	if res.NativeReadGbps < 35 {
		t.Fatalf("native read = %.1f", res.NativeReadGbps)
	}
}

func TestE2Shape(t *testing.T) {
	cfg := DefaultE2Config()
	cfg.Rounds = 11
	_, points := RunE2(cfg)
	if len(points) != len(cfg.Sizes) {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.LookupUs <= p.BaselineUs {
			t.Fatalf("%dB: primitive %.2fµs not above baseline %.2fµs",
				p.Size, p.LookupUs, p.BaselineUs)
		}
		// Paper: 1–2 µs extra; ours is inside that up to 512 B and slightly
		// above at 1024 B. The shape bound: small, single-digit µs, roughly
		// flat.
		if p.ExtraLatencyUs < 0.5 || p.ExtraLatencyUs > 5 {
			t.Fatalf("%dB: extra latency %.2fµs out of band", p.Size, p.ExtraLatencyUs)
		}
	}
	// Roughly flat: spread across sizes well under the paper's band.
	if spread := points[len(points)-1].ExtraLatencyUs - points[0].ExtraLatencyUs; spread > 1.5 {
		t.Fatalf("extra-latency spread %.2fµs; should be nearly flat", spread)
	}
}

func TestE3Shape(t *testing.T) {
	cfg := DefaultE3Config()
	cfg.Sizes = []int{64, 512}
	cfg.Window = 1 * sim.Millisecond
	_, points := RunE3(cfg)
	for _, p := range points {
		if !p.CounterOK {
			t.Fatalf("%dB: counter not exact", p.Size)
		}
		// ≈2.1 Gbps, flat: the RNIC atomic rate cap.
		if p.FAALinkGbps < 1.6 || p.FAALinkGbps > 2.6 {
			t.Fatalf("%dB: FAA bandwidth %.2f Gbps, want ≈2.1", p.Size, p.FAALinkGbps)
		}
		// No end-to-end throughput degradation.
		if diff := p.E2EGbps - p.BaselineGbps; diff < -0.5 || diff > 0.5 {
			t.Fatalf("%dB: e2e %.1f vs baseline %.1f", p.Size, p.E2EGbps, p.BaselineGbps)
		}
	}
	if d := points[1].FAALinkGbps - points[0].FAALinkGbps; d > 0.3 || d < -0.3 {
		t.Fatalf("FAA bandwidth not flat across sizes: %.2f vs %.2f",
			points[0].FAALinkGbps, points[1].FAALinkGbps)
	}
}

func TestE4Shape(t *testing.T) {
	cfg := DefaultE4Config()
	cfg.BurstMBs = []int{25}
	cfg.RegionMB = 32
	_, points := RunE4(cfg)
	p := points[0]
	// Baseline: most of the 25MB burst beyond ~12MB buffer drops...
	if p.BaselineLossRate < 0.25 {
		t.Fatalf("baseline loss %.2f too low for a 25MB burst", p.BaselineLossRate)
	}
	// ...and the first drop lands around the paper's 0.34 ms arithmetic.
	ms := p.BaselineFirstDrop.Seconds() * 1e3
	if ms < 0.25 || ms > 0.55 {
		t.Fatalf("first drop at %.3f ms, paper arithmetic says ≈0.34", ms)
	}
	// The primitive absorbs the burst losslessly.
	if p.PrimitiveLossRate != 0 {
		t.Fatalf("primitive loss %.4f, want 0", p.PrimitiveLossRate)
	}
	if p.PrimitivePFCLoss != 0 {
		t.Fatalf("primitive+PFC loss %.4f, want 0", p.PrimitivePFCLoss)
	}
	if p.SpilledFrames == 0 {
		t.Fatal("nothing spilled: scenario did not engage the ring")
	}
}

func TestE5Shape(t *testing.T) {
	cfg := DefaultE5Config()
	cfg.Mappings, cfg.Packets, cfg.CacheEntries = 50_000, 10_000, 4096
	_, res := RunE5(cfg)
	if res.ServerCPUOps != 0 {
		t.Fatalf("server CPU = %d", res.ServerCPUOps)
	}
	if res.BaselineCPUOps == 0 {
		t.Fatal("baseline slow path cost no CPU?")
	}
	// Tail latency: remote DRAM beats the CPU slow path by a wide margin.
	if res.PrimitiveP99Us >= res.BaselineP99Us/2 {
		t.Fatalf("primitive p99 %.1fµs vs baseline %.1fµs: no tail win",
			res.PrimitiveP99Us, res.BaselineP99Us)
	}
	// Both designs miss the SRAM cache at a similar rate.
	if res.PrimitiveRemoteFrac < 0.02 || res.BaselineSlowPathFrac < 0.02 {
		t.Fatal("workload never missed: cache too large for the test")
	}
}

func TestE6Shape(t *testing.T) {
	cfg := DefaultE6Config()
	cfg.Packets = 15_000
	_, res := RunE6(cfg)
	if res.ServerCPUOps != 0 {
		t.Fatalf("server CPU = %d", res.ServerCPUOps)
	}
	if res.Recall < 0.9 {
		t.Fatalf("recall %.2f", res.Recall)
	}
	if res.Precision < 0.9 {
		t.Fatalf("precision %.2f", res.Precision)
	}
	if res.MeanRelErrTop > 0.1 {
		t.Fatalf("mean relative error %.3f", res.MeanRelErrTop)
	}
}

func TestE7ExactNumbers(t *testing.T) {
	_, res := RunE7(DefaultE7Config())
	if res.V2Transport != 40 || res.V1Transport != 52 ||
		res.WriteExt != 16 || res.ReadExt != 16 || res.FAAExt != 28 {
		t.Fatalf("overhead numbers diverged from the paper: %+v", res)
	}
	for i := 1; i < len(res.ExpansionV2); i++ {
		if res.ExpansionV2[i] >= res.ExpansionV2[i-1] {
			t.Fatal("v2 expansion not decreasing with size")
		}
	}
}

func TestE8aShape(t *testing.T) {
	cfg := DefaultE8aConfig()
	cfg.Window = 1 * sim.Millisecond
	cfg.Batches = []uint64{1, 128}
	_, points := RunE8a(cfg)
	if points[1].FAAIssued >= points[0].FAAIssued {
		t.Fatalf("batching did not reduce ops: %d vs %d",
			points[0].FAAIssued, points[1].FAAIssued)
	}
	if points[1].LinkGbps >= points[0].LinkGbps {
		t.Fatal("batching did not reduce link bandwidth")
	}
	if points[1].MeanStaleness <= points[0].MeanStaleness {
		t.Fatal("batching should increase staleness")
	}
	for _, p := range points {
		if !p.Exact {
			t.Fatalf("batch %d lost counts", p.Batch)
		}
	}
}

func TestE8bShape(t *testing.T) {
	cfg := E8bConfig{Sizes: []int{64, 1500}, Packets: 60}
	_, points := RunE8b(cfg)
	for _, p := range points {
		if p.RecircLinkBytes >= p.DepositLinkBytes {
			t.Fatalf("%dB: recirculation did not save memory-link bytes", p.Size)
		}
	}
	// The saving grows with packet size.
	save0 := points[0].DepositLinkBytes - points[0].RecircLinkBytes
	save1 := points[1].DepositLinkBytes - points[1].RecircLinkBytes
	if save1 <= save0 {
		t.Fatalf("bandwidth saving did not grow with size: %.0f vs %.0f", save0, save1)
	}
}

func TestE8cShape(t *testing.T) {
	cfg := E8cConfig{LossRates: []float64{0, 0.02}, Updates: 600}
	_, points := RunE8c(cfg)
	for _, p := range points {
		if p.ReliableError != 0 {
			t.Fatalf("loss %.3f: reliable error %.4f, want exactly 0", p.LossRate, p.ReliableError)
		}
	}
	if points[0].UnreliableError != 0 {
		t.Fatalf("0%% loss: fire-and-forget error %.4f, want 0", points[0].UnreliableError)
	}
	if points[1].UnreliableError < 0.005 {
		t.Fatalf("2%% loss: fire-and-forget error %.4f suspiciously low", points[1].UnreliableError)
	}
	if points[1].Retransmits == 0 {
		t.Fatal("no retransmits under loss")
	}
}

func TestE8dShape(t *testing.T) {
	cfg := DefaultE8dConfig()
	cfg.Window = 1 * sim.Millisecond
	cfg.CapsGbps = []float64{0, 1}
	_, points := RunE8d(cfg)
	if points[1].LinkGbps >= points[0].LinkGbps {
		t.Fatalf("cap did not reduce link bandwidth: %.2f vs %.2f",
			points[0].LinkGbps, points[1].LinkGbps)
	}
	if points[1].LinkGbps > 1.3 {
		t.Fatalf("1 Gbps cap leaked %.2f Gbps", points[1].LinkGbps)
	}
	for _, p := range points {
		if !p.Exact {
			t.Fatalf("cap %.1f lost counts", p.CapGbps)
		}
	}
	if points[1].CapDrops == 0 {
		t.Fatal("cap never engaged")
	}
}

func TestE8eShape(t *testing.T) {
	cfg := DefaultE8eConfig()
	cfg.Window = 8 * sim.Millisecond
	_, points := RunE8e(cfg)
	fifo, prio := points[0], points[1]
	if prio.FAAIssued < fifo.FAAIssued*3/2 {
		t.Fatalf("priority gained too little: %d vs %d FAAs", prio.FAAIssued, fifo.FAAIssued)
	}
	// Background throughput barely pays for it (FAA traffic is ~2 Gbps).
	if fifo.BackgroundGbps-prio.BackgroundGbps > 2.5 {
		t.Fatalf("priority cost background %.1f Gbps", fifo.BackgroundGbps-prio.BackgroundGbps)
	}
}

func TestE8fShape(t *testing.T) {
	cfg := DefaultE8fConfig()
	cfg.Window = 6 * sim.Millisecond
	cfg.CrashAt = 2 * sim.Millisecond
	_, res := RunE8f(cfg)
	if res.DetectionUs <= 0 || res.DetectionUs > 600 {
		t.Fatalf("detection = %.0f µs with a 100 µs heartbeat", res.DetectionUs)
	}
	if res.OnPrimary == 0 || res.OnStandby == 0 {
		t.Fatalf("counts did not span the failover: primary=%d standby=%d",
			res.OnPrimary, res.OnStandby)
	}
	// Only in-flight ops may vanish: a small constant, not a rate.
	if res.LostInFlight > 64 {
		t.Fatalf("lost %d updates across failover", res.LostInFlight)
	}
}

// TestE9 runs the chaos experiment for three seeds, twice each: every
// invariant must hold and the two runs of a seed must produce identical
// results (the fault models draw only from the engine's seeded RNG).
// Frame-pool balance is checked explicitly because the chaos scenarios
// retain, retransmit, and retarget master copies across simulated failures.
func TestE9(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		before := wire.DefaultPool.Stats().Balance()
		cfg := DefaultE9Config()
		cfg.Seed = seed
		_, first := RunE9(cfg)
		_, second := RunE9(cfg)
		if first != second {
			t.Fatalf("seed %d not reproducible:\n first %+v\nsecond %+v", seed, first, second)
		}
		if !first.AExact {
			t.Errorf("seed %d: E9a counter drifted: %d remote + %d pending != %d updates",
				seed, first.ARemote, first.APending, first.AUpdates)
		}
		if first.ARetransmits == 0 || first.ADrops == 0 || first.ABadICRC == 0 {
			t.Errorf("seed %d: E9a faults not exercised: %d rexmit %d drops %d badICRC",
				seed, first.ARetransmits, first.ADrops, first.ABadICRC)
		}
		if !first.BNoLoss {
			t.Errorf("seed %d: E9b lost updates: primary=%d standby=%d pending=%d",
				seed, first.BOnPrimary, first.BOnStandby, first.BPending)
		}
		if first.BFailovers != 1 || first.BFailbacks != 1 {
			t.Errorf("seed %d: E9b switchovers: %d failovers, %d failbacks",
				seed, first.BFailovers, first.BFailbacks)
		}
		if !first.CExact {
			t.Errorf("seed %d: E9c counter drifted through the flap", seed)
		}
		if first.CBadEntries != 0 {
			t.Errorf("seed %d: E9c lookup parsed %d bad entries", seed, first.CBadEntries)
		}
		if first.CDegradedMisses == 0 || first.CDegradedUpdates == 0 || first.CDegradedBypassed == 0 {
			t.Errorf("seed %d: E9c degraded modes idle: lookup=%d store=%d buffer=%d",
				seed, first.CDegradedMisses, first.CDegradedUpdates, first.CDegradedBypassed)
		}
		if !first.DFixedExact || !first.DAdaptiveExact {
			t.Errorf("seed %d: E9d lost counts (fixed=%v adaptive=%v)",
				seed, first.DFixedExact, first.DAdaptiveExact)
		}
		if !first.DAdaptiveWins {
			t.Errorf("seed %d: adaptive RTO did not beat fixed: %d vs %d retransmits",
				seed, first.DAdaptiveRetransmits, first.DFixedRetransmits)
		}
		if first.PendingEvents != 0 {
			t.Errorf("seed %d: event queue not quiescent: %d pending", seed, first.PendingEvents)
		}
		if after := wire.DefaultPool.Stats().Balance(); after != before {
			t.Errorf("seed %d: frame pool unbalanced: %d before, %d after", seed, before, after)
		}
	}
}

// TestE10 runs the overload experiment for three seeds, twice each. Pins:
// credit windows bound outstanding work, the region gate closes at 4× and
// keeps each channel's occupancy at or below 116 of 128 entries,
// high-priority traffic stays exact while low-priority shed is nonzero
// under 2× overload, and the UnlimitedWindow ablation reproduces the
// unbounded-growth baseline the windows exist to prevent.
func TestE10(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		before := wire.DefaultPool.Stats().Balance()
		cfg := DefaultE10Config()
		cfg.Seed = seed
		_, first := RunE10(cfg)
		_, second := RunE10(cfg)
		if first != second {
			t.Fatalf("seed %d not reproducible:\n first %+v\nsecond %+v", seed, first, second)
		}
		for _, pt := range first.Incast {
			if pt.PeakReads > 8 {
				t.Errorf("seed %d incast %dx: outstanding READs %d exceed per-channel window 8",
					seed, pt.Intensity, pt.PeakReads)
			}
			// The region gate closes at 90 % of a channel's 128 entries
			// (occupancy 116), so no channel's share ever holds more.
			if pt.PeakFrac0 > 116.0/128 || pt.PeakFrac1 > 116.0/128 {
				t.Errorf("seed %d incast %dx: occupancy %v/%v of 128 entries exceeded 116",
					seed, pt.Intensity, pt.PeakFrac0*128, pt.PeakFrac1*128)
			}
			if pt.Intensity <= 2 && !pt.HighLossFree {
				t.Errorf("seed %d incast %dx: high-priority loss: %d/%d delivered",
					seed, pt.Intensity, pt.HighDelivered, pt.HighSent)
			}
			if pt.RingDrops != 0 {
				t.Errorf("seed %d incast %dx: %d silent ring drops", seed, pt.Intensity, pt.RingDrops)
			}
		}
		if first.Incast[2].SpillGateEntries == 0 {
			t.Errorf("seed %d: the region gate never closed at 4x overload", seed)
		}
		if first.Incast[1].ShedLow == 0 {
			t.Errorf("seed %d: no low-priority shed at 2x overload", seed)
		}
		for _, pt := range first.Storm {
			if !pt.HighExact {
				t.Errorf("seed %d storm @%dns: high counters drifted: %d != %d remote + %d pending",
					seed, pt.IntervalNs, pt.HighUpdates, pt.HighRemote, pt.HighPending)
			}
			if pt.FAAPeak > 4 {
				t.Errorf("seed %d storm @%dns: FAA window exceeded: peak %d > 4",
					seed, pt.IntervalNs, pt.FAAPeak)
			}
			if pt.MissPeak > 2 {
				t.Errorf("seed %d storm @%dns: miss window exceeded: peak %d > 2",
					seed, pt.IntervalNs, pt.MissPeak)
			}
			if pt.DroppedUpdates != 0 {
				t.Errorf("seed %d storm @%dns: %d silent pending-slot drops",
					seed, pt.IntervalNs, pt.DroppedUpdates)
			}
		}
		if first.Storm[1].ShedUpdates == 0 || first.Storm[1].ShedMisses == 0 {
			t.Errorf("seed %d: fast storm shed nothing: updates=%d misses=%d",
				seed, first.Storm[1].ShedUpdates, first.Storm[1].ShedMisses)
		}
		if first.UnboundedPeakReads < 32 {
			t.Errorf("seed %d: unbounded ablation stayed bounded: peak reads %d < 32",
				seed, first.UnboundedPeakReads)
		}
		if first.UnboundedFAAPeak <= 4 || first.UnboundedMissPeak <= 2 {
			t.Errorf("seed %d: unbounded storm stayed bounded: FAA %d, miss %d",
				seed, first.UnboundedFAAPeak, first.UnboundedMissPeak)
		}
		if first.CreditRefused == 0 || first.ShedFrames == 0 {
			t.Errorf("seed %d: snapshot missed admission activity: %d refused, %d shed",
				seed, first.CreditRefused, first.ShedFrames)
		}
		if first.PendingEvents != 0 {
			t.Errorf("seed %d: event queue not quiescent: %d pending", seed, first.PendingEvents)
		}
		if after := wire.DefaultPool.Stats().Balance(); after != before {
			t.Errorf("seed %d: frame pool unbalanced: %d before, %d after", seed, before, after)
		}
	}
}

// TestE11 runs the striping experiment for three seeds, twice each. Pins:
// the two runs of a seed are identical (the shard=1 and shard=4 beds both
// replay exactly), aggregate FAA rate scales with fan-out width (>=1.7x at
// two servers, >=3x at four), READ drain goodput scales likewise, doorbell
// batching cuts frames on the wire by at least the configured Batch factor,
// and every run stays exactly-once with a quiescent event queue.
func TestE11(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		before := wire.DefaultPool.Stats().Balance()
		cfg := DefaultE11Config()
		cfg.Seed = seed
		_, first := RunE11(cfg)
		_, second := RunE11(cfg)
		if first != second {
			t.Fatalf("seed %d not reproducible:\n first %+v\nsecond %+v", seed, first, second)
		}
		if !first.FAAExact1 || !first.FAAExact2 || !first.FAAExact4 {
			t.Errorf("seed %d: counts drifted under saturation: exact %v/%v/%v",
				seed, first.FAAExact1, first.FAAExact2, first.FAAExact4)
		}
		if first.FAASpeedup2 < 1.7 || first.FAASpeedup4 < 3 {
			t.Errorf("seed %d: FAA scaling too shallow: %.2fx at 2, %.2fx at 4 (rates %.2f/%.2f/%.2f)",
				seed, first.FAASpeedup2, first.FAASpeedup4,
				first.FAARate1, first.FAARate2, first.FAARate4)
		}
		if first.ReadGbps1 == 0 || first.ReadSpeedup2 < 1.7 || first.ReadSpeedup4 < 3 {
			t.Errorf("seed %d: READ scaling too shallow: %.2fx at 2, %.2fx at 4 (%.1f/%.1f/%.1f Gbps)",
				seed, first.ReadSpeedup2, first.ReadSpeedup4,
				first.ReadGbps1, first.ReadGbps2, first.ReadGbps4)
		}
		if !first.DoorbellExact {
			t.Errorf("seed %d: doorbell ablation lost updates", seed)
		}
		if first.FramesBatched == 0 ||
			first.FramesRatio < float64(cfg.DoorbellBatch) {
			t.Errorf("seed %d: doorbell saved too little: %d vs %d frames (%.1fx < %dx)",
				seed, first.FramesUnbatched, first.FramesBatched,
				first.FramesRatio, cfg.DoorbellBatch)
		}
		if first.PendingEvents != 0 {
			t.Errorf("seed %d: event queue not quiescent: %d pending", seed, first.PendingEvents)
		}
		if after := wire.DefaultPool.Stats().Balance(); after != before {
			t.Errorf("seed %d: frame pool unbalanced: %d before, %d after", seed, before, after)
		}
	}
}

// TestE12 runs the consistency-spectrum experiment for three seeds, twice
// each (the same-seed determinism A/B across all three modes). Pins: the
// failover bed degrades and recovers with zero manual SetDegraded calls and
// ends Healthy, no admitted update is lost, bounded staleness never exceeds
// its configured MaxAge, eventual mode commits strictly more FAA work than
// strict under the identical storm, and every arm stays exact with a
// quiescent event queue and a balanced frame pool.
func TestE12(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		before := wire.DefaultPool.Stats().Balance()
		cfg := DefaultE12Config()
		cfg.Seed = seed
		_, first := RunE12(cfg)
		_, second := RunE12(cfg)
		if first != second {
			t.Fatalf("seed %d not reproducible:\n first %+v\nsecond %+v", seed, first, second)
		}
		if !first.ASelfHealed {
			t.Errorf("seed %d: no self-healing cycle: %d degraded exits, %d recoveries, final %s",
				seed, first.ADegradedExits, first.ASupRecoveries, first.AFinalState)
		}
		if first.ADegradedEntries == 0 || first.AReconciles == 0 || first.AModeChanges == 0 {
			t.Errorf("seed %d: supervisor never drove the store: entries=%d reconciles=%d modeChanges=%d",
				seed, first.ADegradedEntries, first.AReconciles, first.AModeChanges)
		}
		if !first.ANoLoss {
			t.Errorf("seed %d: lost updates: committed=%d pending=%d of %d",
				seed, first.ACommitted, first.APending, first.AUpdates)
		}
		if !first.AllExact {
			t.Errorf("seed %d: a spectrum arm drifted: %+v", seed, first.Spectrum)
		}
		if !first.BoundedWithinBound {
			t.Errorf("seed %d: staleness bound violated or idle: %dns (bound %dns, %d flushes)",
				seed, first.Spectrum[1].MaxStalenessNs, int64(cfg.BoundMaxAge),
				first.Spectrum[1].BoundFlushes)
		}
		if !first.EventualBeatsStrict {
			t.Errorf("seed %d: eventual did not out-commit strict: %d vs %d remote",
				seed, first.Spectrum[2].Remote, first.Spectrum[0].Remote)
		}
		if first.Spectrum[0].Shed == 0 {
			t.Errorf("seed %d: strict arm shed nothing; the storm is not overloading", seed)
		}
		if first.Spectrum[2].Shed != 0 {
			t.Errorf("seed %d: eventual arm shed %d updates; eventual never sheds",
				seed, first.Spectrum[2].Shed)
		}
		if first.Spectrum[1].SupDegraded == 0 {
			t.Errorf("seed %d: lookup supervisor never degraded under overload", seed)
		}
		if first.PendingEvents != 0 {
			t.Errorf("seed %d: event queue not quiescent: %d pending", seed, first.PendingEvents)
		}
		if after := wire.DefaultPool.Stats().Balance(); after != before {
			t.Errorf("seed %d: frame pool unbalanced: %d before, %d after", seed, before, after)
		}
	}
}

// TestE13 runs the replication experiment for three seeds, twice each. Pins:
// same-seed runs are byte-identical, the replica lands anti-affine to its
// primary, sync replication is byte-exact across a wiped primary crash (one
// promotion, zero declared loss), async loss is bounded by the counted
// LostDelta with the lag histogram under MaxLag+1 and every declared loss
// surfaced as a typed CQReplicaLost completion, the scrubber repairs the
// replica-blip divergence to byte equality (with the lag pressure walking
// the supervisor to Suspect), and the unreplicated baseline really loses
// updates to the wipe.
func TestE13(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		before := wire.DefaultPool.Stats().Balance()
		cfg := DefaultE13Config()
		cfg.Seed = seed
		_, first := RunE13(cfg)
		_, second := RunE13(cfg)
		if first != second {
			t.Fatalf("seed %d not reproducible:\n first %+v\nsecond %+v", seed, first, second)
		}
		if !first.AntiAffine {
			t.Errorf("seed %d: replica co-located with primary on mem%d", seed, first.PMem)
		}
		if !first.SyncExact {
			t.Errorf("seed %d: sync arm not byte-exact: %d updates, %d replica, %d pending, %d lost-declared, %d promotions",
				seed, first.Sync.Updates, first.Sync.Remote, first.Sync.Pending,
				first.Sync.ReplicaLost, first.Sync.Promotions)
		}
		if first.Sync.Wiped == 0 {
			t.Errorf("seed %d: sync arm crash did not wipe the primary", seed)
		}
		if !first.AsyncBounded || !first.AsyncLagBounded {
			t.Errorf("seed %d: async loss unbounded: %d updates vs %d remote + %d pending + %d lost-delta, lag max %d",
				seed, first.Async.Updates, first.Async.Remote, first.Async.Pending,
				first.Async.LostDelta, first.Async.LagMax)
		}
		if !first.AsyncLossTyped {
			t.Errorf("seed %d: declared losses not surfaced as typed completions: %d CQReplicaLost vs %d declared",
				seed, first.Async.TypedErrors, first.Async.ReplicaLost)
		}
		if !first.ScrubConverged {
			t.Errorf("seed %d: scrub arm did not converge: %d diverged, %d repaired of %d checked",
				seed, first.ScrubDiverged, first.ScrubRepairs, first.ScrubChecked)
		}
		if first.ScrubLost == 0 || first.ScrubRepairs == 0 {
			t.Errorf("seed %d: scrub arm exercised nothing: %d declared lost, %d repairs",
				seed, first.ScrubLost, first.ScrubRepairs)
		}
		if first.ScrubSuspect == 0 {
			t.Errorf("seed %d: replication lag never walked the supervisor to Suspect", seed)
		}
		if !first.BaselineLossy {
			t.Errorf("seed %d: unreplicated baseline lost nothing: %+v", seed, first.Off)
		}
		if first.PendingEvents != 0 {
			t.Errorf("seed %d: event queue not quiescent: %d pending", seed, first.PendingEvents)
		}
		if after := wire.DefaultPool.Stats().Balance(); after != before {
			t.Errorf("seed %d: frame pool unbalanced: %d before, %d after", seed, before, after)
		}
	}
}
