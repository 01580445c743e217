package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef is one named metric: what BENCHMARK.json lists, and how -check
// compares two runs of it.
type metricDef struct {
	name, unit, better string
	// bound is the share by which an end-to-end metric may get worse before
	// a change counts as a regression; 0 on per-layer metrics.
	bound float64
	// exact metrics are simulated or counted: for one seed they must repeat
	// to the last digit, whatever the host does.
	exact bool
}

// endToEnd is what a user of the reproduction sees. failed_share is printed
// with them but is not listed in BENCHMARK.json, whose metrics may never be
// 0; the result line's attempted/failed carry it there.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "run_s", unit: "s", better: "lower", bound: 0.25},
	{name: "frames_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "allocs_per_frame", unit: "1/frame", better: "lower", bound: 0.01},
	{name: "bytes_per_frame", unit: "B/frame", better: "lower", bound: 0.02},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.10},
	{name: "sim_ops_per_ms", unit: "1/ms", better: "higher", bound: 0.05, exact: true},
	{name: "sim_p50_us", unit: "us", better: "lower", bound: 0.15, exact: true},
	{name: "sim_p99_us", unit: "us", better: "lower", bound: 0.15, exact: true},
}

// setupFloorS is the absolute slack -check gives setup_s on top of its
// relative bound: set-ups of a few milliseconds move by more than any share.
const setupFloorS = 0.010

// perLayer lists the single-layer metrics. README.md says which end-to-end
// metric each should move, on which workload.
var perLayer = []metricDef{
	// sim: the event engine.
	{name: "sim.events", unit: "count", better: "lower", exact: true},
	{name: "sim.events_per_frame", unit: "1/frame", better: "lower", exact: true},
	{name: "sim.ns_per_event", unit: "ns", better: "lower"},
	{name: "sim.events_per_s", unit: "1/s", better: "higher"},
	{name: "sim.sched_fire_ns", unit: "ns", better: "lower"},
	{name: "sim.sched_fire_allocs", unit: "1/op", better: "lower"},
	{name: "sim.peak_pending", unit: "count", better: "lower"},
	{name: "sim.other_s", unit: "s", better: "lower"},
	{name: "sim.model_s", unit: "s", better: "lower"},
	{name: "sim.residual_s", unit: "s", better: "lower"},
	// wire: frame codecs and the buffer pool.
	{name: "wire.build_ns", unit: "ns", better: "lower"},
	{name: "wire.decode_ns", unit: "ns", better: "lower"},
	{name: "wire.allocs_per_frame", unit: "1/frame", better: "lower"},
	{name: "wire.pool_miss_ratio", unit: "ratio", better: "lower"},
	{name: "wire.pool_balance", unit: "count", better: "lower", exact: true},
	// netsim: links and ports.
	{name: "netsim.frames", unit: "count", better: "lower", exact: true},
	{name: "netsim.wire_mb", unit: "MB", better: "lower", exact: true},
	{name: "netsim.tx_drops", unit: "count", better: "lower", exact: true},
	{name: "netsim.fault_drops", unit: "count", better: "lower", exact: true},
	{name: "netsim.peak_queue_frames", unit: "count", better: "lower", exact: true},
	{name: "netsim.hop_ns", unit: "ns", better: "lower"},
	{name: "netsim.hop_allocs", unit: "1/frame", better: "lower"},
	{name: "netsim.send_s", unit: "s", better: "lower"},
	// switchsim: the switch model.
	{name: "switchsim.rx_frames", unit: "count", better: "lower", exact: true},
	{name: "switchsim.buffer_drops", unit: "count", better: "lower", exact: true},
	{name: "switchsim.queue_peak_bytes", unit: "B", better: "lower", exact: true},
	{name: "switchsim.recirculated", unit: "count", better: "lower", exact: true},
	{name: "switchsim.forward_ns", unit: "ns", better: "lower"},
	{name: "switchsim.forward_allocs", unit: "1/frame", better: "lower"},
	{name: "switchsim.pipeline_s", unit: "s", better: "lower"},
	{name: "switchsim.pipeline_calls", unit: "count", better: "lower"},
	{name: "switchsim.sim_residency_ns_p50", unit: "ns", better: "lower"},
	// rnic: the RDMA NIC model.
	{name: "rnic.exec_writes", unit: "count", better: "lower", exact: true},
	{name: "rnic.exec_reads", unit: "count", better: "lower", exact: true},
	{name: "rnic.exec_atomics", unit: "count", better: "lower", exact: true},
	{name: "rnic.write_mb", unit: "MB", better: "lower", exact: true},
	{name: "rnic.read_mb", unit: "MB", better: "lower", exact: true},
	{name: "rnic.rx_ring_drops", unit: "count", better: "lower", exact: true},
	{name: "rnic.naks_sent", unit: "count", better: "lower", exact: true},
	{name: "rnic.dup_requests", unit: "count", better: "lower", exact: true},
	{name: "rnic.serve_write_ns", unit: "ns", better: "lower"},
	{name: "rnic.serve_read_ns", unit: "ns", better: "lower"},
	{name: "rnic.serve_atomic_ns", unit: "ns", better: "lower"},
	{name: "rnic.serve_allocs", unit: "1/op", better: "lower"},
	{name: "rnic.sim_rtt_ns_p50", unit: "ns", better: "lower"},
	{name: "rnic.sim_rtt_ns_p99", unit: "ns", better: "lower"},
	// verbs: the work-queue transport.
	{name: "verbs.posted", unit: "count", better: "lower", exact: true},
	{name: "verbs.completed", unit: "count", better: "higher", exact: true},
	{name: "verbs.retried", unit: "count", better: "lower", exact: true},
	{name: "verbs.refused", unit: "count", better: "lower", exact: true},
	{name: "verbs.stale", unit: "count", better: "lower", exact: true},
	{name: "verbs.errors", unit: "count", better: "lower", exact: true},
	{name: "verbs.useful_ratio", unit: "ratio", better: "higher", exact: true},
	{name: "verbs.mirrored", unit: "count", better: "lower", exact: true},
	{name: "verbs.mirror_lag_max", unit: "count", better: "lower", exact: true},
	{name: "verbs.post_complete_ns", unit: "ns", better: "lower"},
	{name: "verbs.post_complete_allocs", unit: "1/op", better: "lower"},
	// core: the primitives.
	{name: "core.datapath_s", unit: "s", better: "lower"},
	{name: "core.datapath_calls", unit: "count", better: "lower"},
	{name: "core.dispatch_s", unit: "s", better: "lower"},
	{name: "core.dispatch_calls", unit: "count", better: "lower"},
	{name: "core.hooks_s", unit: "s", better: "lower"},
	{name: "core.retransmits", unit: "count", better: "lower", exact: true},
	{name: "core.naks_seen", unit: "count", better: "lower", exact: true},
	{name: "core.credit_refused", unit: "count", better: "lower", exact: true},
	{name: "core.faa_per_update", unit: "ratio", better: "lower", exact: true},
	{name: "core.cache_hit_ratio", unit: "ratio", better: "higher", exact: true},
	{name: "core.spilled_frames", unit: "count", better: "lower", exact: true},
	{name: "core.ring_peak_entries", unit: "count", better: "lower", exact: true},
	// gem: the facade's set-up calls.
	{name: "gem.new_s", unit: "s", better: "lower"},
	{name: "gem.establish_s", unit: "s", better: "lower"},
	{name: "gem.populate_s", unit: "s", better: "lower"},
	{name: "gem.region_mb", unit: "MB", better: "lower", exact: true},
	{name: "gem.stats_s", unit: "s", better: "lower"},
	// gen, go, trace: the benchmark's own generator, the runtime, tracing.
	{name: "gen.s", unit: "s", better: "lower"},
	{name: "gen.frames", unit: "count", better: "higher", exact: true},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "go.heap_alloc_mb", unit: "MB", better: "lower"},
	{name: "go.gomaxprocs", unit: "count", better: "higher"},
	{name: "trace.tap_s", unit: "s", better: "lower"},
	{name: "trace.lap_ns", unit: "ns", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}

// unitOf looks a metric's unit up in the tables; reporting a metric that is
// in neither is a bug in this package.
func unitOf(name string) string {
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range table {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("bench: metric " + name + " is in neither metric table")
}

// value is one reported metric. N, Min and Max are set on medians of
// episodes.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

// result is one run of one workload: the full machine-readable record.
type result struct {
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	Scale      float64          `json:"scale"`
	Host       hostRecord       `json:"host"`
	Episodes   int              `json:"timed_episodes"`
	Traced     bool             `json:"traced"`
	Correct    bool             `json:"correct"`
	Attempted  int64            `json:"attempted"`
	Failed     int64            `json:"failed"`
	LatSamples int              `json:"sim_latency_samples"`
	SimDigest  string           `json:"sim_digest"`
	EndToEnd   map[string]value `json:"end_to_end"`
	PerLayer   map[string]value `json:"per_layer"`
}

func (r *result) failedShare() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// assemble folds a run's timed episodes into a result: medians for what the
// host decides, the single repeated value for what the simulation decides.
// It is an error for two episodes to disagree on anything counted.
func assemble(w *workload, seed int64, scale float64, eps []*episode) (*result, error) {
	first := eps[0]
	for i, ep := range eps[1:] {
		if ep.digest != first.digest || ep.attempted != first.attempted || ep.failed != first.failed ||
			ep.simP50Us != first.simP50Us || ep.simP99Us != first.simP99Us {
			return nil, fmt.Errorf("%s: episode %d disagrees with episode 0 on counted values (%s)",
				w.name, i+1, diffCounted(first.counted, ep.counted))
		}
	}
	r := &result{
		Workload: w.name, Seed: seed, Scale: scale, Host: thisHost(), Episodes: len(eps),
		LatSamples: first.latSamples, SimDigest: first.digest,
		EndToEnd: map[string]value{}, PerLayer: map[string]value{},
	}
	for _, ep := range eps {
		r.Attempted += ep.attempted
		r.Failed += ep.failed
	}
	r.Correct = r.Failed == 0

	med := func(dst map[string]value, name string, f func(*episode) float64) {
		vs := make([]float64, len(eps))
		for i, ep := range eps {
			vs[i] = f(ep)
		}
		dst[name] = summarize(vs, unitOf(name))
	}
	one := func(dst map[string]value, name string, v float64) {
		dst[name] = value{Value: v, Unit: unitOf(name)}
	}

	med(r.EndToEnd, "setup_s", func(e *episode) float64 { return e.setupS })
	med(r.EndToEnd, "run_s", func(e *episode) float64 { return e.runS })
	med(r.EndToEnd, "frames_per_s", func(e *episode) float64 { return e.frames / e.runS })
	med(r.EndToEnd, "allocs_per_frame", func(e *episode) float64 { return e.mallocs / e.frames })
	med(r.EndToEnd, "bytes_per_frame", func(e *episode) float64 { return e.allocB / e.frames })
	med(r.EndToEnd, "peak_rss_mb", func(e *episode) float64 { return e.peakRSSMB })
	one(r.EndToEnd, "sim_ops_per_ms", float64(first.attempted-first.failed)/(float64(first.simNs)/1e6))
	one(r.EndToEnd, "sim_p50_us", first.simP50Us)
	one(r.EndToEnd, "sim_p99_us", first.simP99Us)

	for k, v := range first.counted {
		one(r.PerLayer, k, v)
	}
	med(r.PerLayer, "sim.ns_per_event", func(e *episode) float64 { return e.runS * 1e9 / e.counted["sim.events"] })
	med(r.PerLayer, "sim.events_per_s", func(e *episode) float64 { return e.counted["sim.events"] / e.runS })
	med(r.PerLayer, "wire.pool_miss_ratio", func(e *episode) float64 { return e.poolMissRatio })
	med(r.PerLayer, "gem.new_s", func(e *episode) float64 { return e.newS })
	med(r.PerLayer, "gem.establish_s", func(e *episode) float64 { return e.establishS })
	med(r.PerLayer, "gem.populate_s", func(e *episode) float64 { return e.populateS })
	med(r.PerLayer, "gem.stats_s", func(e *episode) float64 { return e.statsS })
	med(r.PerLayer, "go.gc_cycles", func(e *episode) float64 { return e.gcCycles })
	med(r.PerLayer, "go.gc_pause_ms", func(e *episode) float64 { return e.gcPauseMs })
	med(r.PerLayer, "go.heap_alloc_mb", func(e *episode) float64 { return e.heapAllocMB })
	one(r.PerLayer, "go.gomaxprocs", float64(r.Host.GOMAXPROCS))
	return r, nil
}

// diffCounted names the counted metrics two episodes disagree on.
func diffCounted(a, b map[string]float64) string {
	var names []string
	for k, v := range a {
		if b[k] != v {
			names = append(names, fmt.Sprintf("%s: %v vs %v", k, v, b[k]))
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return "simulated clock, latency or remote memory"
	}
	return strings.Join(names, "; ")
}

// traceReport is what the traced episode and the layer drivers add.
type traceReport struct {
	runS       float64 // traced run, wall clock
	selfSumS   float64 // Σ self time over every span of the run
	otherS     float64 // the root spans' self time: engine + un-hookable closures
	lapS       float64 // the part of otherS that is the tracer's own root spans
	modelS     float64 // what the drivers say that remainder should cost
	overhead   float64 // traced ÷ untraced run_s
	digestSame bool
}

// addTraced runs the layer drivers and folds them and the traced episode
// into r.PerLayer.
func addTraced(r *result, w *workload, ep *episode) (*traceReport, error) {
	tr := ep.tr
	one := func(name string, v float64) { r.PerLayer[name] = value{Value: v, Unit: unitOf(name)} }
	c := func(name string) float64 { return r.PerLayer[name].Value }

	lap := driveLap()
	fire := driveSchedFire(int(math.Round(ep.meanPending)))
	build, decode := driveWire(w.frame)
	hopLen := max(w.dataLen, 64)
	hop := driveHop(hopLen)
	fwd, err := driveForward(hopLen)
	if err != nil {
		return nil, fmt.Errorf("forward driver: %w", err)
	}
	var sw, sr, sa, pc cost
	if w.rdma != (rdmaShape{}) {
		sw, sr, sa = driveServe(w.rdma)
		pc = drivePostComplete(w.rdma)
	}

	one("sim.sched_fire_ns", fire.ns)
	one("sim.sched_fire_allocs", fire.allocs)
	one("sim.peak_pending", float64(ep.peakPending))
	one("wire.build_ns", build.ns)
	one("wire.decode_ns", decode.ns)
	one("wire.allocs_per_frame", build.allocs+decode.allocs)
	one("netsim.hop_ns", hop.ns)
	one("netsim.hop_allocs", hop.allocs)
	one("switchsim.forward_ns", max(0, fwd.ns-2*hop.ns))
	one("switchsim.forward_allocs", max(0, fwd.allocs-2*hop.allocs))
	one("rnic.serve_write_ns", sw.ns)
	one("rnic.serve_read_ns", sr.ns)
	one("rnic.serve_atomic_ns", sa.ns)
	execs := c("rnic.exec_writes") + c("rnic.exec_reads") + c("rnic.exec_atomics")
	serveAllocs := 0.0
	if execs > 0 {
		serveAllocs = (c("rnic.exec_writes")*sw.allocs + c("rnic.exec_reads")*sr.allocs + c("rnic.exec_atomics")*sa.allocs) / execs
	}
	one("rnic.serve_allocs", serveAllocs)
	one("verbs.post_complete_ns", pc.ns)
	one("verbs.post_complete_allocs", pc.allocs)

	resid50, _ := quantiles(ep.tap.resid)
	rtt50, rtt99 := quantiles(ep.tap.rtt)
	one("switchsim.sim_residency_ns_p50", resid50)
	one("rnic.sim_rtt_ns_p50", rtt50)
	one("rnic.sim_rtt_ns_p99", rtt99)

	one("gen.s", tr.selfSeconds(spanGen))
	one("netsim.send_s", tr.selfSeconds(spanSend))
	one("switchsim.pipeline_s", tr.selfSeconds(spanPipeline))
	one("switchsim.pipeline_calls", float64(tr.calls[spanPipeline]))
	one("core.datapath_s", tr.selfSeconds(spanDatapath))
	one("core.datapath_calls", float64(tr.calls[spanDatapath]))
	one("core.dispatch_s", tr.selfSeconds(spanDispatch))
	one("core.dispatch_calls", float64(tr.calls[spanDispatch]))
	one("core.hooks_s", tr.selfSeconds(spanHooks))
	one("trace.tap_s", tr.selfSeconds(spanTap))
	one("sim.other_s", tr.selfSeconds(spanEvent))

	// What the remainder should cost if the layers behaved in the run as they
	// do alone. Each driver's own events (and, for the NIC, the response's
	// hop) are taken out so that nothing is counted twice.
	hopExtra := max(0, hop.ns-hop.events*fire.ns)
	serveExtra := func(s cost) float64 { return max(0, s.ns-s.events*fire.ns-s.frames*hopExtra) }
	model := (c("sim.events")*fire.ns + c("netsim.frames")*hopExtra +
		c("rnic.exec_writes")*serveExtra(sw) + c("rnic.exec_reads")*serveExtra(sr) + c("rnic.exec_atomics")*serveExtra(sa)) / 1e9
	lapS := c("sim.events") * lap.ns / 1e9
	one("trace.lap_ns", lap.ns)
	one("sim.model_s", model)
	one("sim.residual_s", tr.selfSeconds(spanEvent)-lapS-model)

	rep := &traceReport{
		runS: ep.runS, otherS: tr.selfSeconds(spanEvent), lapS: lapS, modelS: model,
		overhead:   ep.runS / r.EndToEnd["run_s"].Value,
		digestSame: ep.digest == r.SimDigest,
	}
	for id := spanEvent; id <= spanTap; id++ {
		rep.selfSumS += tr.selfSeconds(id)
	}
	one("trace.overhead_ratio", rep.overhead)
	r.Traced = true
	return rep, nil
}

// print writes the human-readable report: every metric by name, with its unit.
func (r *result) print(out io.Writer, w *workload, rep *traceReport) {
	fmt.Fprintf(out, "workload %s  seed %d  scale %g  %d timed episodes after 1 warm-up\n", r.Workload, r.Seed, r.Scale, r.Episodes)
	fmt.Fprintf(out, "why: %s\n", w.why)
	h := r.Host
	fmt.Fprintf(out, "host: nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s\n\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Commit)

	row := func(d metricDef, v value, boundCol bool) {
		spread := ""
		if v.N > 0 {
			spread = fmt.Sprintf("n=%d min=%.6g max=%.6g", v.N, v.Min, v.Max)
		}
		bound := ""
		if boundCol {
			bound = fmt.Sprintf("±%g%%", d.bound*100)
			if d.exact {
				bound = "exact per seed"
			}
		}
		fmt.Fprintf(out, "  %-32s %14.6g %-8s %-6s %-15s %s\n", d.name, v.Value, d.unit, d.better, bound, spread)
	}
	fmt.Fprintf(out, "end-to-end (timed metrics: median of the episodes)\n")
	for _, d := range endToEnd {
		row(d, r.EndToEnd[d.name], true)
	}
	fmt.Fprintf(out, "  %-32s %14.6g %-8s %-6s %-15s %d failed of %d operations\n", "failed_share", r.failedShare(), "ratio", "lower", "exact per seed", r.Failed, r.Attempted)
	fmt.Fprintf(out, "  %-32s %14s  simulated latency over %d samples per episode\n\n", "sim_digest", r.SimDigest, r.LatSamples)

	fmt.Fprintf(out, "per-layer\n")
	for _, d := range perLayer {
		if v, ok := r.PerLayer[d.name]; ok {
			row(d, v, false)
		}
	}
	if rep == nil {
		fmt.Fprintf(out, "  (driver and traced metrics need -trace 1)\n\n")
		return
	}
	fmt.Fprintf(out, "\ntrace (one extra episode, not used above)\n")
	fmt.Fprintf(out, "  run_s traced %.4f = Σ self %.4f (%.2f%% apart): gen %.4f + netsim.send %.4f + switchsim.pipeline %.4f + core.datapath %.4f + core.dispatch %.4f + core.hooks %.4f + trace.tap %.4f + sim.other %.4f\n",
		rep.runS, rep.selfSumS, 100*math.Abs(rep.selfSumS-rep.runS)/rep.runS,
		r.PerLayer["gen.s"].Value, r.PerLayer["netsim.send_s"].Value, r.PerLayer["switchsim.pipeline_s"].Value,
		r.PerLayer["core.datapath_s"].Value, r.PerLayer["core.dispatch_s"].Value, r.PerLayer["core.hooks_s"].Value,
		r.PerLayer["trace.tap_s"].Value, rep.otherS)
	fmt.Fprintf(out, "  trace.overhead_ratio %.3f (traced ÷ untraced run_s); traced sim_digest equal: %v\n", rep.overhead, rep.digestSame)
	net := rep.otherS - rep.lapS
	fmt.Fprintf(out, "  sim.other_s %.4f s − %.4f s of root spans (events × trace.lap_ns) = %.4f s; layer drivers predict events×sched_fire + frames×hop + Σ exec×serve = %.4f s; residual %.4f s (%.0f%%)\n\n",
		rep.otherS, rep.lapS, net, rep.modelS, net-rep.modelS, 100*(net-rep.modelS)/net)
}
