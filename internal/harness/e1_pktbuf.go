package harness

import (
	"fmt"

	"gem"
	"gem/internal/netsim"
	"gem/internal/rnic"
	"gem/internal/sim"
)

// E1Config parameterizes the packet-buffer throughput experiment (§5:
// store at 34.1 Gbps, forward at 37.4 Gbps, native RDMA baseline 4.4%
// faster).
type E1Config struct {
	// FrameLen is the test frame size (paper: 1500 B MTU).
	FrameLen int
	// SweepStart/SweepEnd/SweepStep define the offered-rate sweep (Gbps)
	// for the max-lossless-store search.
	SweepStart, SweepEnd, SweepStep float64
	// Window is the measurement window per sweep point.
	Window sim.Duration
	// DrainFrames is the preloaded ring size for the forward test.
	DrainFrames int
}

// DefaultE1Config returns the full-experiment settings.
func DefaultE1Config() E1Config {
	return E1Config{
		FrameLen:   1500,
		SweepStart: 30, SweepEnd: 40, SweepStep: 0.5,
		Window:      10 * sim.Millisecond,
		DrainFrames: 3000,
	}
}

// E1Result carries the numbers the paper reports in prose.
type E1Result struct {
	StoreMaxGbps      float64 // max lossless store rate (goodput of original frames)
	ForwardGbps       float64 // drain/forward rate
	NativeWriteGbps   float64 // host↔host RDMA WRITE goodput
	NativeReadGbps    float64 // host↔host RDMA READ goodput
	BaselineAdvantage float64 // native WRITE vs store path, fractional
	ServerCPUOps      int64
}

// newE1Bed builds the §5 microbenchmark over one memory server, its source
// offering rateGbps.
func newE1Bed(cfg E1Config, rateGbps float64) *spillBed {
	return newSpillBed(gem.Options{
		Seed: 1, Hosts: 2, MemoryServers: 1,
		NIC: rnic.Config{MTU: 4096},
	}, 256<<20, cfg.FrameLen, rateGbps)
}

// e1StoreAttempt offers rateGbps of frames for cfg.Window with loading
// paused and reports whether every frame reached remote memory without
// loss, plus the achieved store goodput.
func e1StoreAttempt(cfg E1Config, rateGbps float64) (lossless bool, storedGbps float64) {
	b := newE1Bed(cfg, rateGbps)
	b.pb.PauseLoading()
	b.gen.Start(b.tb.Engine, 0)
	b.tb.RunFor(cfg.Window)
	nic := b.tb.MemNICs[0]
	executedInWindow := nic.Stats.ExecWrites // snapshot before the drain tail
	b.gen.Stop()
	b.tb.RunFor(500 * sim.Microsecond) // let in-flight frames land

	lost := b.pb.Stats.RingDrops + b.pb.Stats.StoreFails +
		nic.Stats.RxRingDrops + b.tb.Switch.Stats.BufferDrops + b.gen.SendFails
	lossless = lost == 0 && int64(b.pb.Stats.Stored) == b.gen.Sent
	// Sustained goodput of original frames committed to remote memory
	// during the window (the drain tail excluded).
	storedGbps = float64(executedInWindow) * float64(cfg.FrameLen) * 8 / cfg.Window.Seconds() / 1e9
	return lossless, storedGbps
}

// e1Forward stores DrainFrames with loading paused, then resumes loading
// and measures the pure load+forward goodput.
func e1Forward(cfg E1Config) float64 {
	b := newE1Bed(cfg, 30) // safe store rate for the preload phase
	return b.drainGbps(cfg.DrainFrames, cfg.FrameLen)
}

// e1Native measures host↔host native RDMA WRITE and READ goodput — the
// paper's baseline ("The baseline is only 4.4% faster").
func e1Native(cfg E1Config, read bool) float64 {
	n := netsim.New(1)
	clientHost := netsim.NewHost("client", 1)
	serverHost := netsim.NewHost("server", 2)
	client := rnic.New("client-nic", clientHost, rnic.Config{MTU: 4096})
	server := rnic.New("server-nic", serverHost, rnic.Config{MTU: 4096})
	pc, ps := n.Connect(client, server, netsim.Link40G())
	client.Bind(n.Engine, pc)
	server.Bind(n.Engine, ps)
	region := server.RegisterMemory(0x10000, 64<<20)
	qp := server.CreateQP(rnic.PSNStrict)
	req := client.NewRequester(server.MAC, server.IP, qp.Number, 512)
	qp.PeerMAC, qp.PeerIP, qp.PeerQPN = client.MAC, client.IP, 0x999

	payload := make([]byte, cfg.FrameLen)
	var done int64
	slots := 64 << 20 / cfg.FrameLen
	issued := 0
	post := func() {
		va := 0x10000 + uint64(issued%slots)*uint64(cfg.FrameLen)
		if read {
			req.PostRead(va, region.RKey, cfg.FrameLen, func([]byte) { done++ })
		} else {
			req.PostWrite(va, region.RKey, payload, func() { done++ })
		}
		issued++
	}
	// Keep a deep pipeline of outstanding messages for the whole window.
	n.Engine.Ticker(2*sim.Microsecond, func() bool {
		for issued-int(done) < 128 {
			post()
		}
		return n.Engine.Now() < sim.Time(cfg.Window)
	})
	n.Engine.RunUntil(sim.Time(cfg.Window))
	return float64(done) * float64(cfg.FrameLen) * 8 / cfg.Window.Seconds() / 1e9
}

// RunE1 executes the packet-buffer throughput experiment.
func RunE1(cfg E1Config) (*Table, E1Result) {
	var res E1Result
	// Sweep offered store rate upward; the max lossless rate is the last
	// rate with zero loss.
	for rate := cfg.SweepStart; rate <= cfg.SweepEnd+1e-9; rate += cfg.SweepStep {
		lossless, stored := e1StoreAttempt(cfg, rate)
		if lossless && stored > res.StoreMaxGbps {
			res.StoreMaxGbps = stored
		}
		if !lossless {
			break // past the knee
		}
	}
	res.ForwardGbps = e1Forward(cfg)
	res.NativeWriteGbps = e1Native(cfg, false)
	res.NativeReadGbps = e1Native(cfg, true)
	if res.StoreMaxGbps > 0 {
		res.BaselineAdvantage = res.NativeWriteGbps/res.StoreMaxGbps - 1
	}

	t := &Table{
		ID:      "E1",
		Title:   fmt.Sprintf("Packet buffer primitive throughput (%dB frames), cf. §5", cfg.FrameLen),
		Columns: []string{"path", "goodput (Gbps)", "paper"},
	}
	t.AddRow("store to remote buffer (max lossless)", f1(res.StoreMaxGbps), "34.1")
	t.AddRow("load + forward", f1(res.ForwardGbps), "37.4")
	t.AddRow("native RDMA WRITE (baseline)", f1(res.NativeWriteGbps), "~35.6")
	t.AddRow("native RDMA READ (baseline)", f1(res.NativeReadGbps), "-")
	t.AddNote("baseline advantage over store path: %s (paper: 4.4%%)", pct(res.BaselineAdvantage))
	return t, res
}
