package main

import (
	"encoding/json"
	"os"
	"testing"

	"gem"
)

// testScale keeps every workload's episode to a few tens of milliseconds.
const testScale = 0.02

// Every workload, small: no operation fails, two episodes of one seed agree
// on everything counted, and tracing does not change the simulation.
func TestWorkloadsVerifyAndRepeat(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			a, err := runEpisode(w, 7, testScale, false)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runEpisode(w, 7, testScale, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runEpisode(w, 7, testScale, true)
			if err != nil {
				t.Fatal(err)
			}
			if a.attempted == 0 || a.failed != 0 {
				t.Fatalf("failed_share: %d of %d operations failed", a.failed, a.attempted)
			}
			if a.latSamples == 0 || a.simP50Us <= 0 || a.simP99Us < a.simP50Us {
				t.Fatalf("simulated latency: n=%d p50=%v p99=%v", a.latSamples, a.simP50Us, a.simP99Us)
			}
			if a.digest != b.digest {
				t.Fatalf("two episodes disagree: %s vs %s (%s)", a.digest, b.digest, diffCounted(a.counted, b.counted))
			}
			if a.digest != traced.digest {
				t.Fatalf("tracing changed the simulation: %s vs %s (%s)", a.digest, traced.digest, diffCounted(a.counted, traced.counted))
			}
			other, err := runEpisode(w, 8, testScale, false)
			if err != nil {
				t.Fatal(err)
			}
			if other.failed != 0 {
				t.Fatalf("seed 8: %d of %d operations failed", other.failed, other.attempted)
			}
			if other.digest == a.digest {
				t.Fatal("a different seed gave the same digest: the inputs do not depend on the seed")
			}

			r, err := assemble(w, 7, testScale, []*episode{a, b})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range endToEnd {
				if v, ok := r.EndToEnd[d.name]; !ok || v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want a positive value", d.name, v.Value)
				}
			}
			rep, err := addTraced(r, w, traced)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range perLayer {
				if _, ok := r.PerLayer[d.name]; !ok {
					t.Errorf("per-layer metric %s was not reported", d.name)
				}
			}
			if len(r.PerLayer) != len(perLayer) {
				t.Errorf("%d per-layer metrics reported, %d in the table", len(r.PerLayer), len(perLayer))
			}
			// Root spans tile the run, so self times must add up to it.
			if gap := rep.selfSumS - rep.runS; gap > 0.02*rep.runS || gap < -0.02*rep.runS {
				t.Errorf("Σ self time %.6f s vs traced run %.6f s: more than 2%% apart", rep.selfSumS, rep.runS)
			}
			if w.bypassesMemory {
				for _, id := range []spanID{spanDatapath, spanHooks} {
					if traced.tr.calls[id] != 0 {
						t.Errorf("%s ran %d times on a workload that bypasses remote memory", spanNames[id], traced.tr.calls[id])
					}
				}
			}
		})
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{9, 9, 1, 1, 9, 1, 5, 9, 1}, 5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
	s := summarize([]float64{4, 8, 6}, "s")
	if s.Value != 6 || s.Unit != "s" || s.N != 3 || s.Min != 4 || s.Max != 8 {
		t.Errorf("summarize = %+v", s)
	}
}

// Self time is a span's duration minus what its children cover; a lap closes
// one root and opens the next on the same clock reading.
func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	tr.open(spanEvent, 0)
	tr.open(spanPipeline, 10)
	tr.open(spanDatapath, 15)
	tr.close(25) // datapath: 10, all self
	tr.open(spanDatapath, 30)
	tr.close(32) // datapath: 2 more
	tr.close(50) // pipeline: 40 total, 28 self
	tr.close(60) // root: 60 total, 20 self
	tr.open(spanEvent, 60)
	tr.close(100) // a childless root: 40 self

	for _, c := range []struct {
		id                 spanID
		calls, total, self int64
	}{
		{spanEvent, 2, 100, 60},
		{spanPipeline, 1, 40, 28},
		{spanDatapath, 2, 12, 12},
		{spanGen, 0, 0, 0},
	} {
		if tr.calls[c.id] != c.calls || tr.total[c.id] != c.total || tr.self[c.id] != c.self {
			t.Errorf("%s: calls %d total %d self %d, want %d %d %d", spanNames[c.id],
				tr.calls[c.id], tr.total[c.id], tr.self[c.id], c.calls, c.total, c.self)
		}
	}
	var sum int64
	for _, s := range tr.self {
		sum += s
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the 100 ns the roots cover", sum)
	}
	if tr.events != 2 {
		t.Errorf("events = %d, want 2", tr.events)
	}
	want := []span{
		{"sim.event", 0, 60, -1}, {"switchsim.pipeline", 10, 50, 0},
		{"core.datapath", 15, 25, 1}, {"core.datapath", 30, 32, 1}, {"sim.event", 60, 100, -1},
	}
	if len(tr.spans) != len(want) {
		t.Fatalf("%d spans kept, want %d", len(tr.spans), len(want))
	}
	for i, s := range tr.spans {
		if s != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, s, want[i])
		}
	}

	// Past the whole-span window only the totals grow.
	tr.events = fullSpanEvents
	tr.open(spanEvent, 100)
	tr.close(110)
	if len(tr.spans) != len(want) || tr.calls[spanEvent] != 3 {
		t.Errorf("after the window: %d spans, %d root calls", len(tr.spans), tr.calls[spanEvent])
	}
	if selfTime(40, 12) != 28 {
		t.Error("selfTime(40, 12) != 28")
	}
}

func TestSimDigest(t *testing.T) {
	counted := map[string]float64{"sim.events": 7e6, "netsim.frames": 2e6, "core.cache_hit_ratio": 0.814086}
	base := simDigest(counted, 4633000, 0xfeed)
	if len(base) != 16 {
		t.Fatalf("digest %q is not 16 hex digits", base)
	}
	same := map[string]float64{"core.cache_hit_ratio": 0.814086, "netsim.frames": 2e6, "sim.events": 7e6}
	if got := simDigest(same, 4633000, 0xfeed); got != base {
		t.Errorf("digest depends on map order: %s vs %s", got, base)
	}
	if simDigest(counted, 4633001, 0xfeed) == base {
		t.Error("digest ignores the simulated clock")
	}
	if simDigest(counted, 4633000, 0xfeee) == base {
		t.Error("digest ignores remote memory")
	}
	counted["netsim.frames"]++
	if simDigest(counted, 4633000, 0xfeed) == base {
		t.Error("digest ignores a counted metric")
	}
}

func TestHistQuantile(t *testing.T) {
	var h gem.LatencyHist
	if histQuantileNs(&h, 0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
	for i := 0; i < 100; i++ {
		h.Observe(gem.Duration(1000 + i)) // all in the [512, 1024) or [1024, 2048) buckets
	}
	p50, p99 := histQuantileNs(&h, 0.50), histQuantileNs(&h, 0.99)
	if p50 < 512 || p50 > 2048 || p99 < p50 || p99 > float64(h.MaxNs)+1 {
		t.Errorf("p50 %v p99 %v outside the populated buckets (max %d)", p50, p99, h.MaxNs)
	}
}

// BENCHMARK.json is what the driver reads; it must say what the tables say.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var m struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d exist", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s / %s", i, m.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics listed, %d in the table", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: %+v, want %s %s %s", kind, i, g, d.name, d.unit, d.better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s: bound listed differs from %v", d.name, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	foundSetup := false
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		foundSetup = foundSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !foundSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", m.Paths, m.RunSeconds)
	}
}

// -check's rules: exact metrics identical, timed ones within their bound,
// setup_s with an absolute floor.
func TestCompareSets(t *testing.T) {
	mk := func(setup, run, p50 float64, digest string) map[string][]*result {
		return map[string][]*result{"fwd_64": {{
			Workload: "fwd_64", Seed: 1, SimDigest: digest, Attempted: 10,
			EndToEnd: map[string]value{"setup_s": {Value: setup}, "run_s": {Value: run}, "sim_p50_us": {Value: p50}},
			PerLayer: map[string]value{"sim.events": {Value: 7}},
		}}}
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	a := mk(0.004, 1.00, 1.035, "aa")
	for _, c := range []struct {
		name string
		b    map[string][]*result
		bad  int
	}{
		{"same", mk(0.004, 1.00, 1.035, "aa"), 0},
		{"setup within the floor", mk(0.009, 1.00, 1.035, "aa"), 0},
		{"run within its bound", mk(0.004, 1.20, 1.035, "aa"), 0},
		{"run past its bound", mk(0.004, 1.30, 1.035, "aa"), 1},
		{"simulated latency moved", mk(0.004, 1.00, 1.036, "aa"), 1},
		{"digest moved", mk(0.004, 1.00, 1.035, "ab"), 1},
	} {
		if got := compareSets(null, a, c.b); got != c.bad {
			t.Errorf("%s: %d metrics flagged, want %d", c.name, got, c.bad)
		}
	}
}
