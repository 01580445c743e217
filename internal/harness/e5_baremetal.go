package harness

import (
	"fmt"

	"gem"
	"gem/internal/flowgen"
	"gem/internal/sim"
	"gem/internal/stats"
	"gem/internal/switchsim"
	"gem/internal/wire"
)

// E5Config parameterizes the §2.2 bare-metal hosting scenario: a
// virtual-to-physical address mapping table an order of magnitude larger
// than switch SRAM. The baseline must bounce misses through a CPU slow
// path; the lookup-table primitive serves them from remote DRAM with the
// local table acting as a cache.
type E5Config struct {
	// Mappings is the virtual→physical table size (flows).
	Mappings int
	// CacheEntries is the switch SRAM cache capacity (≈10× smaller).
	CacheEntries int
	// Packets is the workload length.
	Packets int
	// ZipfSkew shapes flow popularity.
	ZipfSkew float64
	// SlowPathLatency is the CPU software-switch detour cost of the
	// baseline (tens of µs per the paper's motivation).
	SlowPathLatency sim.Duration
}

// DefaultE5Config returns the full-experiment settings.
func DefaultE5Config() E5Config {
	return E5Config{
		Mappings:        200_000,
		CacheEntries:    16_384,
		Packets:         60_000,
		ZipfSkew:        1.1,
		SlowPathLatency: 40 * sim.Microsecond,
	}
}

// E5Result compares the slow-path baseline with the primitive.
type E5Result struct {
	BaselineSlowPathFrac float64 // fraction of packets through the CPU path
	BaselineP50Us        float64
	BaselineP99Us        float64
	PrimitiveRemoteFrac  float64 // fraction served from remote DRAM
	PrimitiveP50Us       float64
	PrimitiveP99Us       float64
	CacheHitRate         float64
	SRAMNeededFullMB     float64 // SRAM a full table would need
	SRAMUsedMB           float64 // SRAM the primitive actually used
	ServerCPUOps         int64   // memory server CPU (must be 0)
	BaselineCPUOps       int64   // slow-path server CPU (large)
}

// e5Drive runs the closed-loop Zipf workload through tb and returns the p50
// and p99 one-way latency in µs.
func e5Drive(tb *gem.Testbed, cfg E5Config) (p50, p99 float64) {
	lat := &stats.Histogram{}
	zipf := flowgen.NewZipf(5, cfg.Mappings, cfg.ZipfSkew)
	closedLoop(tb, cfg.Packets, func(int) []byte { return flowFrame(tb, zipf.Next(), 256) },
		lat.AddDuration)
	return float64(lat.Percentile(50)) / 1e3, float64(lat.Percentile(99)) / 1e3
}

// e5Baseline: the switch holds only CacheEntries mappings in SRAM; misses
// detour through a software virtual switch on a CPU (latency + CPU ops).
func e5Baseline(cfg E5Config) (slowFrac, p50, p99 float64, cpuOps int64) {
	tb, err := gem.New(gem.Options{Seed: 5, Hosts: 2})
	if err != nil {
		panic(err)
	}
	cache, err := switchsim.NewCacheTable[wire.FlowKey, wire.IP4](
		tb.Switch.SRAM, "vnet-cache", cfg.CacheEntries, 24)
	if err != nil {
		panic(err)
	}
	var slow int64
	tb.SetPipeline(func(ctx *gem.Context) {
		if ctx.Pkt == nil || !ctx.Pkt.HasIPv4 {
			ctx.Drop()
			return
		}
		key := gem.FlowOf(ctx.Pkt)
		if _, ok := cache.Lookup(key); ok {
			ctx.Emit(1, ctx.Frame)
			return
		}
		// Miss: punt a copy to the CPU software switch and drop the
		// original, as emitting to a CPU port does. The CPU installs the
		// mapping and injects the copy back into the fabric.
		slow++
		cpuOps++
		punt := wire.DefaultPool.Clone(ctx.Frame)
		ctx.Drop()
		tb.Engine.Schedule(cfg.SlowPathLatency, func() {
			cache.Put(key, wire.IP4{})
			tb.Switch.Inject(1, punt)
		})
	})
	p50, p99 = e5Drive(tb, cfg)
	return float64(slow) / float64(cfg.Packets), p50, p99, cpuOps
}

// e5Primitive: the full mapping lives in remote DRAM; the SRAM cache holds
// the hot set; misses are served by the lookup primitive in-network.
func e5Primitive(cfg E5Config) (remoteFrac, p50, p99, hitRate float64, sramMB float64, srvCPU int64) {
	lcfg := gem.LookupConfig{
		Entries:      cfg.Mappings,
		MaxPktBytes:  512,
		CacheEntries: cfg.CacheEntries,
	}
	tb, lt := lookupBed(5, lcfg, func(i int) gem.LookupAction {
		return gem.SetDstIPAction(wire.IP4FromUint32(0x0B000000 | uint32(i)))
	})
	p50, p99 = e5Drive(tb, cfg)
	return float64(lt.Stats.RemoteLookups) / float64(cfg.Packets), p50, p99,
		lt.Cache().HitRate(),
		float64(tb.Switch.SRAM.Used()) / (1 << 20),
		tb.ServerCPUOps()
}

// RunE5 executes the bare-metal lookup-scale experiment.
func RunE5(cfg E5Config) (*Table, E5Result) {
	var res E5Result
	res.BaselineSlowPathFrac, res.BaselineP50Us, res.BaselineP99Us, res.BaselineCPUOps = e5Baseline(cfg)
	res.PrimitiveRemoteFrac, res.PrimitiveP50Us, res.PrimitiveP99Us, res.CacheHitRate,
		res.SRAMUsedMB, res.ServerCPUOps = e5Primitive(cfg)
	res.SRAMNeededFullMB = float64(cfg.Mappings*24) / (1 << 20)

	t := &Table{
		ID: "E5",
		Title: fmt.Sprintf("§2.2 bare-metal hosting: %d mappings vs %d-entry SRAM cache",
			cfg.Mappings, cfg.CacheEntries),
		Columns: []string{"design", "miss path", "miss frac", "p50 (µs)", "p99 (µs)", "CPU ops"},
	}
	t.AddRow("baseline (SRAM + CPU slow path)", "software vswitch",
		pct(res.BaselineSlowPathFrac), f2(res.BaselineP50Us), f2(res.BaselineP99Us), di(res.BaselineCPUOps))
	t.AddRow("lookup-table primitive", "remote DRAM (data plane)",
		pct(res.PrimitiveRemoteFrac), f2(res.PrimitiveP50Us), f2(res.PrimitiveP99Us), di(res.ServerCPUOps))
	t.AddNote("full table would need %.1f MB of SRAM; primitive used %.1f MB (cache+state)",
		res.SRAMNeededFullMB, res.SRAMUsedMB)
	t.AddNote("cache hit rate %s; paper: slow-path forwarding 'can be eliminated or minimized'",
		pct(res.CacheHitRate))
	return t, res
}
