package harness

import (
	"fmt"
	"math"
	"sort"

	"gem"
	"gem/internal/flowgen"
	"gem/internal/sketch"
)

// E6Config parameterizes the §2.3 telemetry use case: a Count Sketch whose
// counter arrays live in remote DRAM, updated by the state-store primitive
// with one Fetch-and-Add per sketch row per sampled packet, and read by
// operator-side estimation software directly from server memory.
type E6Config struct {
	// Rows and Width shape the Count Sketch.
	Rows, Width int
	// Flows and Packets shape the Zipf workload.
	Flows, Packets int
	// ZipfSkew shapes flow popularity.
	ZipfSkew float64
	// HHThresholdFrac defines a heavy hitter as a flow with more than
	// this fraction of all packets.
	HHThresholdFrac float64
}

// DefaultE6Config returns the full-experiment settings.
func DefaultE6Config() E6Config {
	return E6Config{
		Rows: 5, Width: 8192,
		Flows: 20_000, Packets: 40_000,
		ZipfSkew:        1.15,
		HHThresholdFrac: 0.01,
	}
}

// E6Result summarizes sketch fidelity and scale.
type E6Result struct {
	Precision        float64
	Recall           float64
	MeanRelErrTop    float64 // mean relative error over true heavy hitters
	TrueHH           int
	DetectedHH       int
	CountersRemote   int
	SRAMCounterLimit int // counters that would fit in the whole SRAM budget
	FAAIssued        int64
	ServerCPUOps     int64
}

// RunE6 executes the telemetry experiment.
func RunE6(cfg E6Config) (*Table, E6Result) {
	tb, err := gem.New(gem.Options{Seed: 6, Hosts: 2, MemoryServers: 1})
	if err != nil {
		panic(err)
	}
	counters := cfg.Rows * cfg.Width
	ch, err := tb.Establish(0, gem.ChannelSpec{RegionSize: counters * 8})
	if err != nil {
		panic(err)
	}
	ss, err := gem.NewStateStore(ch, gem.StateStoreConfig{
		Counters:       counters,
		MaxOutstanding: 32,
		PendingSlots:   1 << 15,
	})
	if err != nil {
		panic(err)
	}
	tb.Dispatcher.Register(ch, ss)
	cs := sketch.NewCountSketch(cfg.Rows, cfg.Width)
	tb.SetPipeline(func(ctx *gem.Context) {
		if ctx.Pkt == nil || !ctx.Pkt.HasIPv4 {
			ctx.Drop()
			return
		}
		// One signed FAA per sketch row (two's-complement deltas ride
		// the unsigned wrapping add).
		key := gem.FlowOf(ctx.Pkt)
		kb := uint64(key.Hash())
		for _, pos := range cs.Positions(kb) {
			ss.Update(pos.Index, uint64(pos.Delta))
		}
		ctx.Emit(1, ctx.Frame)
	})

	// Zipf workload, one frame per draw.
	zipf := flowgen.NewZipf(6, cfg.Flows, cfg.ZipfSkew)
	truth := make(map[int]int64)
	for i := 0; i < cfg.Packets; i++ {
		f := zipf.Next()
		truth[f]++
		tb.SendFrame(0, flowFrame(tb, f, 128))
		if i%512 == 511 {
			tb.Run() // keep host-port FIFOs shallow
		}
	}
	tb.Run()

	// Operator side: read the counter array straight out of server DRAM
	// and run heavy-hitter estimation (§4).
	remote := make([]uint64, counters)
	for i := range remote {
		v, _ := tb.ReadRemoteCounter(ch, i*8)
		remote[i] = v
	}

	threshold := int64(math.Ceil(cfg.HHThresholdFrac * float64(cfg.Packets)))
	trueHH := map[int]bool{}
	//gem:deterministic — building a set; membership is order-independent (path: TestE6Shape)
	for f, c := range truth {
		if c >= threshold {
			trueHH[f] = true
		}
	}
	var res E6Result
	res.TrueHH = len(trueHH)
	res.CountersRemote = counters
	res.SRAMCounterLimit = tb.Switch.SRAM.Total / 8
	res.FAAIssued = ss.Stats.FAAIssued
	res.ServerCPUOps = tb.ServerCPUOps()

	tp, fp := 0, 0
	var relErrSum float64
	var relErrN int
	// relErrSum is a float accumulation: iterate flows in sorted order so
	// the reported error is bit-identical across runs.
	flows := make([]int, 0, len(truth))
	//gem:deterministic — collecting keys for sorting is order-independent (path: TestE6Shape)
	for f := range truth {
		flows = append(flows, f)
	}
	sort.Ints(flows)
	for _, f := range flows {
		kb := uint64(flowKeyOf(tb, f).Hash())
		est := cs.Estimate(remote, kb)
		if est >= threshold {
			if trueHH[f] {
				tp++
			} else {
				fp++
			}
		}
		if trueHH[f] && truth[f] > 0 {
			relErrSum += math.Abs(float64(est-truth[f])) / float64(truth[f])
			relErrN++
		}
	}
	res.DetectedHH = tp + fp
	if res.DetectedHH > 0 {
		res.Precision = float64(tp) / float64(res.DetectedHH)
	}
	if res.TrueHH > 0 {
		res.Recall = float64(tp) / float64(res.TrueHH)
	}
	if relErrN > 0 {
		res.MeanRelErrTop = relErrSum / float64(relErrN)
	}

	t := &Table{
		ID:      "E6",
		Title:   "§2.3 telemetry: remote Count Sketch heavy-hitter detection",
		Columns: []string{"metric", "value"},
	}
	t.AddRow("sketch", fmt.Sprintf("%d×%d counters in remote DRAM", cfg.Rows, cfg.Width))
	t.AddRow("true heavy hitters", di(int64(res.TrueHH)))
	t.AddRow("detected", di(int64(res.DetectedHH)))
	t.AddRow("precision", pct(res.Precision))
	t.AddRow("recall", pct(res.Recall))
	t.AddRow("mean rel. error (HH)", pct(res.MeanRelErrTop))
	t.AddRow("FAA ops issued", di(res.FAAIssued))
	t.AddRow("server CPU ops", di(res.ServerCPUOps))
	t.AddNote("scale: the whole %d MB SRAM budget holds %.1fM counters; 100 GB of server",
		tb.Switch.SRAM.Total>>20, float64(res.SRAMCounterLimit)/1e6)
	t.AddNote("DRAM holds 12500M — the paper's 'counters can increase by 1000x'")
	return t, res
}

// flowKeyOf reconstructs the FlowKey the pipeline hashed for flow i.
func flowKeyOf(tb *gem.Testbed, i int) gem.FlowKey {
	sp, dp := flowgen.FlowID(i)
	return gem.FlowKey{
		SrcIP: tb.Hosts[0].IP, DstIP: tb.Hosts[1].IP,
		Protocol: 17, SrcPort: sp, DstPort: dp,
	}
}
