package harness

import (
	"fmt"
	"slices"

	"gem"
	"gem/internal/sim"
	"gem/internal/switchsim"
)

// ---- E8a: Fetch-and-Add batching (§7: "combine multiple counter updates
// into a single operation, at the cost of some delay in updates") ----

// E8aConfig parameterizes the batching ablation.
type E8aConfig struct {
	Batches     []uint64
	FrameLen    int
	OfferedGbps float64
	Window      sim.Duration
}

// DefaultE8aConfig returns the full-experiment settings.
func DefaultE8aConfig() E8aConfig {
	return E8aConfig{
		Batches:     []uint64{1, 8, 32, 128, 512},
		FrameLen:    128,
		OfferedGbps: 30,
		Window:      2 * sim.Millisecond,
	}
}

// E8aPoint is one batching factor.
type E8aPoint struct {
	Batch         uint64
	FAAIssued     int64
	LinkGbps      float64
	MeanStaleness float64 // average counts parked on the switch
	Exact         bool
}

// RunE8a executes the batching ablation.
func RunE8a(cfg E8aConfig) (*Table, []E8aPoint) {
	var points []E8aPoint
	t := &Table{
		ID:      "E8a",
		Title:   "§7 ablation: combining counter updates (batch factor)",
		Columns: []string{"batch", "FAA issued", "FAA link bw (Gbps)", "mean staleness (counts)", "exact"},
	}
	for _, batch := range cfg.Batches {
		b := newFlowCountBed(switchsim.Config{}, false, batch, cfg.FrameLen, cfg.OfferedGbps)
		ss := b.ss
		var staleSum float64
		samples := 0
		b.tb.Engine.Ticker(20*sim.Microsecond, func() bool {
			staleSum += float64(ss.PendingTotal())
			samples++
			return b.tb.Now() < gem.Time(cfg.Window)
		})
		b.tb.RunFor(cfg.Window)
		b.gen.Stop()
		linkBytes := memLinkBytes(b.tb)
		b.tb.Run()

		remote := remoteSum(b.tb, ss, nil, flowCounters)
		p := E8aPoint{
			Batch:     batch,
			FAAIssued: ss.Stats.FAAIssued,
			LinkGbps:  float64(linkBytes) * 8 / cfg.Window.Seconds() / 1e9,
			Exact:     remote+ss.PendingTotal() == uint64(ss.Stats.Updates) && ss.Stats.DroppedUpdates == 0,
		}
		if samples > 0 {
			p.MeanStaleness = staleSum / float64(samples)
		}
		points = append(points, p)
		t.AddRow(fmt.Sprintf("%d", batch), di(p.FAAIssued), f2(p.LinkGbps),
			f1(p.MeanStaleness), fmt.Sprintf("%v", p.Exact))
	}
	t.AddNote("higher batch = fewer ops and less bandwidth, at the cost of update delay")
	return t, points
}

// ---- E8b: lookup deposit vs recirculation (§7: "recirculate the original
// packet locally and wait for the pulled entry ... can save the bandwidth
// overhead to the remote memory") ----

// E8bConfig parameterizes the lookup-variant ablation.
type E8bConfig struct {
	Sizes   []int
	Packets int
}

// DefaultE8bConfig returns the full-experiment settings.
func DefaultE8bConfig() E8bConfig {
	return E8bConfig{Sizes: []int{64, 512, 1500}, Packets: 400}
}

// E8bPoint compares the two designs at one packet size.
type E8bPoint struct {
	Size              int
	DepositLinkBytes  float64 // memory-link bytes per lookup
	RecircLinkBytes   float64
	DepositLatencyUs  float64
	RecircLatencyUs   float64
	RecircPassesPerOp float64
}

func e8bRun(size, packets int, mode gem.LookupConfig) (bytesPerOp, medianUs, passesPerOp float64) {
	cfg := mode
	cfg.Entries = 512
	cfg.MaxPktBytes = 1536
	tb, lt := lookupBed(8, cfg, func(int) gem.LookupAction { return gem.SetDSCPAction(40) })
	var lat []sim.Duration
	closedLoop(tb, packets, func(i int) []byte { return flowFrame(tb, i, size) },
		func(d sim.Duration) { lat = append(lat, d) })
	total := float64(memLinkBytes(tb))
	ops := float64(lt.Stats.RemoteLookups)
	if ops == 0 {
		ops = 1
	}
	mid := len(lat) / 2
	slices.Sort(lat)
	var med float64
	if len(lat) > 0 {
		med = lat[mid].Seconds() * 1e6
	}
	return total / ops, med, float64(lt.Stats.RecircPasses) / ops
}

// RunE8b executes the deposit-vs-recirculation ablation.
func RunE8b(cfg E8bConfig) (*Table, []E8bPoint) {
	var points []E8bPoint
	t := &Table{
		ID:    "E8b",
		Title: "§7 ablation: lookup miss handling — deposit vs local recirculation",
		Columns: []string{
			"pkt size (B)", "deposit B/op", "recirc B/op",
			"deposit p50 (µs)", "recirc p50 (µs)", "recirc passes/op",
		},
	}
	for _, size := range cfg.Sizes {
		var p E8bPoint
		p.Size = size
		p.DepositLinkBytes, p.DepositLatencyUs, _ = e8bRun(size, cfg.Packets, gem.LookupConfig{Mode: gem.LookupDeposit})
		p.RecircLinkBytes, p.RecircLatencyUs, p.RecircPassesPerOp =
			e8bRun(size, cfg.Packets, gem.LookupConfig{Mode: gem.LookupRecirculate, MaxRecircPasses: 32})
		points = append(points, p)
		t.AddRow(fmt.Sprintf("%d", size), f1(p.DepositLinkBytes), f1(p.RecircLinkBytes),
			f2(p.DepositLatencyUs), f2(p.RecircLatencyUs), f2(p.RecircPassesPerOp))
	}
	t.AddNote("recirculation trades remote-link bytes for pipeline passes; the win grows")
	t.AddNote("with packet size (the deposit must carry the whole packet both ways)")
	return t, points
}

// ---- E8c: reliability under memory-link loss (§7: "implement parsing and
// handling of RDMA ACKs/NACKs to make certain remote memory reliable") ----

// E8cConfig parameterizes the reliability ablation.
type E8cConfig struct {
	LossRates []float64
	Updates   int
}

// DefaultE8cConfig returns the full-experiment settings.
func DefaultE8cConfig() E8cConfig {
	return E8cConfig{LossRates: []float64{0, 0.001, 0.01, 0.05}, Updates: 2000}
}

// E8cPoint compares counter accuracy with and without the extension.
type E8cPoint struct {
	LossRate        float64
	UnreliableError float64 // relative counter error, fire-and-forget
	ReliableError   float64 // with ACK/NAK handling + retransmit
	Retransmits     int64
}

func e8cUnreliable(loss float64, updates int) float64 {
	tb, err := gem.New(gem.Options{Seed: 8, Hosts: 1, MemoryServers: 1, MemLinkLossRate: loss})
	if err != nil {
		panic(err)
	}
	ch, err := tb.Establish(0, gem.ChannelSpec{RegionSize: 4096})
	if err != nil {
		panic(err)
	}
	tb.SetPipeline(func(ctx *gem.Context) { ctx.Drop() })
	// Fire-and-forget, paced below the NIC's atomic rate so that — absent
	// loss — every request can execute (the prototype's operating point).
	issued := 0
	tb.Engine.Ticker(1*sim.Microsecond, func() bool {
		ch.FetchAdd(0, 1)
		issued++
		return issued < updates
	})
	tb.Run()
	v, _ := tb.ReadRemoteCounter(ch, 0)
	return 1 - float64(v)/float64(updates)
}

func e8cReliable(loss float64, updates int) (float64, int64) {
	tb, ch, rt := reliableBed(8, loss, 8)
	rt.Timeout = 20 * sim.Microsecond
	v := pumpFAA(tb, ch, rt, updates, 500*sim.Nanosecond)
	return 1 - float64(v)/float64(updates), rt.Retransmits
}

// RunE8c executes the reliability ablation.
func RunE8c(cfg E8cConfig) (*Table, []E8cPoint) {
	var points []E8cPoint
	t := &Table{
		ID:      "E8c",
		Title:   "§7 ablation: counter accuracy under memory-link loss",
		Columns: []string{"loss rate", "fire-and-forget error", "with ACK/NAK handling", "retransmits"},
	}
	for _, loss := range cfg.LossRates {
		var p E8cPoint
		p.LossRate = loss
		p.UnreliableError = e8cUnreliable(loss, cfg.Updates)
		p.ReliableError, p.Retransmits = e8cReliable(loss, cfg.Updates)
		points = append(points, p)
		t.AddRow(pct(loss), pct(p.UnreliableError), pct(p.ReliableError), di(p.Retransmits))
	}
	t.AddNote("fire-and-forget loses ≈ the loss rate in counts; the §7 extension stays exact")
	return t, points
}

// ---- E8d: RDMA bandwidth cap (§7: "use a bandwidth cap to prevent RDMA
// packets taking too much bandwidth") ----

// E8dConfig parameterizes the bandwidth-cap ablation.
type E8dConfig struct {
	CapsGbps    []float64 // 0 = uncapped
	FrameLen    int
	OfferedGbps float64
	Window      sim.Duration
}

// DefaultE8dConfig returns the full-experiment settings.
func DefaultE8dConfig() E8dConfig {
	return E8dConfig{
		CapsGbps:    []float64{0, 2, 1, 0.5},
		FrameLen:    128,
		OfferedGbps: 30,
		Window:      2 * sim.Millisecond,
	}
}

// E8dPoint is one cap setting.
type E8dPoint struct {
	CapGbps   float64
	LinkGbps  float64 // measured FAA traffic on the memory link
	FAAIssued int64
	CapDrops  int64
	Exact     bool // remote + pending still accounts for every update
}

// RunE8d executes the bandwidth-cap ablation: the state store under a
// token-bucket cap coalesces harder instead of losing counts.
func RunE8d(cfg E8dConfig) (*Table, []E8dPoint) {
	var points []E8dPoint
	t := &Table{
		ID:      "E8d",
		Title:   "§7 ablation: bandwidth cap on the RDMA channel",
		Columns: []string{"cap (Gbps)", "FAA link bw (Gbps)", "FAA issued", "cap refusals", "exact"},
	}
	for _, cap := range cfg.CapsGbps {
		b := newFlowCountBed(switchsim.Config{}, false, 0, cfg.FrameLen, cfg.OfferedGbps)
		ch, ss := b.ch, b.ss
		if cap > 0 {
			ch.SetBandwidthCap(cap*1e9/2, 16<<10) // half the budget for requests, half for responses
		}
		b.tb.RunFor(cfg.Window)
		b.gen.Stop()
		linkBytes := memLinkBytes(b.tb)
		b.tb.Run()

		remote := remoteSum(b.tb, ss, nil, flowCounters)
		p := E8dPoint{
			CapGbps:   cap,
			LinkGbps:  float64(linkBytes) * 8 / cfg.Window.Seconds() / 1e9,
			FAAIssued: ss.Stats.FAAIssued,
			CapDrops:  ch.CapDrops,
			Exact:     remote+ss.PendingTotal() == uint64(ss.Stats.Updates) && ss.Stats.DroppedUpdates == 0,
		}
		points = append(points, p)
		capLabel := "uncapped"
		if cap > 0 {
			capLabel = f1(cap)
		}
		t.AddRow(capLabel, f2(p.LinkGbps), di(p.FAAIssued), di(p.CapDrops), fmt.Sprintf("%v", p.Exact))
	}
	t.AddNote("the cap bounds FAA traffic; the state store coalesces harder under it and")
	t.AddNote("stays exact — counts defer on the switch instead of being lost")
	return t, points
}

// ---- E8e: RDMA prioritization (§7: "one may prioritize these RDMA
// packets so that they are less likely to be dropped") ----

// E8eConfig parameterizes the prioritization ablation: FAA traffic shares
// the memory link with near-line-rate background traffic to the same
// server.
type E8eConfig struct {
	BackgroundGbps float64
	FrameLen       int
	Window         sim.Duration
}

// DefaultE8eConfig returns the full-experiment settings.
func DefaultE8eConfig() E8eConfig {
	return E8eConfig{BackgroundGbps: 39.5, FrameLen: 1500, Window: 15 * sim.Millisecond}
}

// E8ePoint compares the two queueing disciplines.
type E8ePoint struct {
	Priority       bool
	FAAIssued      int64
	AcksSeen       int64
	PendingEnd     uint64
	Exact          bool
	BackgroundGbps float64
}

func e8eRun(cfg E8eConfig, priority bool) E8ePoint {
	// Background traffic rides to the memory server's host; the switch
	// counts it in the remote state store on the way — the FAAs then share
	// the congested memory link with the traffic they measure.
	b := newFlowCountBed(switchsim.Config{RDMAPriority: priority}, true, 0,
		cfg.FrameLen, cfg.BackgroundGbps)
	ss := b.ss
	b.tb.RunFor(cfg.Window)
	b.gen.Stop()
	delivered := b.tb.MemHosts[0].Received
	bgGbps := float64(delivered) * float64(cfg.FrameLen) * 8 / cfg.Window.Seconds() / 1e9
	b.tb.Run()

	remote := remoteSum(b.tb, ss, nil, flowCounters)
	return E8ePoint{
		Priority:   priority,
		FAAIssued:  ss.Stats.FAAIssued,
		AcksSeen:   ss.Stats.AcksSeen,
		PendingEnd: ss.PendingTotal(),
		Exact: remote+ss.PendingTotal()+uint64(ss.Stats.TimedOut) >=
			uint64(ss.Stats.Updates)-uint64(ss.Stats.DroppedUpdates),
		BackgroundGbps: bgGbps,
	}
}

// RunE8e executes the prioritization ablation.
func RunE8e(cfg E8eConfig) (*Table, []E8ePoint) {
	var points []E8ePoint
	t := &Table{
		ID:    "E8e",
		Title: "§7 ablation: strict priority for RDMA on a congested memory link",
		Columns: []string{
			"discipline", "FAA issued", "atomic acks", "pending at end", "background (Gbps)",
		},
	}
	for _, prio := range []bool{false, true} {
		p := e8eRun(cfg, prio)
		points = append(points, p)
		name := "FIFO (shared queue)"
		if prio {
			name = "RDMA strict priority"
		}
		t.AddRow(name, di(p.FAAIssued), di(p.AcksSeen), fmt.Sprintf("%d", p.PendingEnd), f1(p.BackgroundGbps))
	}
	t.AddNote("with FIFO queuing, FAA requests drown behind the traffic they measure;")
	t.AddNote("prioritizing RDMA keeps the telemetry channel live at ~the NIC atomic rate")
	return t, points
}

// ---- E8f: server failure handling (§7: "improve the robustness of the
// architecture by handling switch and server failures") ----

// E8fConfig parameterizes the failover experiment.
type E8fConfig struct {
	UpdateRatePerSec  float64
	HeartbeatInterval sim.Duration
	CrashAt           sim.Duration
	Window            sim.Duration
}

// DefaultE8fConfig returns the full-experiment settings.
func DefaultE8fConfig() E8fConfig {
	return E8fConfig{
		UpdateRatePerSec:  200_000,
		HeartbeatInterval: 100 * sim.Microsecond,
		CrashAt:           4 * sim.Millisecond,
		Window:            10 * sim.Millisecond,
	}
}

// E8fResult summarizes a crash-and-failover run.
type E8fResult struct {
	DetectionUs    float64 // crash → switchover
	Updates        uint64  // total counted events
	OnPrimary      uint64  // committed to the crashed server (lost with it)
	OnStandby      uint64  // committed to the standby after failover
	PendingAtEnd   uint64
	LostInFlight   uint64 // unaccounted: FAAs in flight at the crash
	HeartbeatsSent int64
}

// RunE8f executes the failover experiment.
func RunE8f(cfg E8fConfig) (*Table, E8fResult) {
	tb, err := gem.New(gem.Options{Seed: 8, Hosts: 1, MemoryServers: 2})
	if err != nil {
		panic(err)
	}
	primary, err := tb.Establish(0, gem.ChannelSpec{RegionSize: 1 << 16})
	if err != nil {
		panic(err)
	}
	standby, err := tb.Establish(1, gem.ChannelSpec{RegionSize: 1 << 16})
	if err != nil {
		panic(err)
	}
	ss, err := gem.NewStateStore(primary, gem.StateStoreConfig{
		Counters: 64, OutstandingTimeout: 300 * sim.Microsecond,
	})
	if err != nil {
		panic(err)
	}
	fo, err := gem.NewFailover([]*gem.Channel{primary, standby}, ss)
	if err != nil {
		panic(err)
	}
	fo.HeartbeatInterval = cfg.HeartbeatInterval
	fo.OnFailover = func(_, newCh *gem.Channel) { ss.RebindShard(0, newCh) }
	fo.RegisterWith(tb.Dispatcher)
	tb.SetPipeline(func(ctx *gem.Context) { ctx.Drop() })
	fo.Start()

	interval := sim.Duration(1e9 / cfg.UpdateRatePerSec)
	var updates uint64
	tb.Engine.Ticker(interval, func() bool {
		ss.Update(5, 1)
		updates++
		return tb.Now() < gem.Time(cfg.Window)
	})
	tb.Engine.Schedule(cfg.CrashAt, func() { tb.MemNICs[0].Fail() })
	tb.RunFor(cfg.Window + 2*sim.Millisecond)

	var res E8fResult
	res.Updates = updates
	res.OnPrimary, _ = tb.MemNICs[0].ReadCounter(primary.RKey, primary.Base+5*8)
	res.OnStandby, _ = tb.MemNICs[1].ReadCounter(standby.RKey, standby.Base+5*8)
	res.PendingAtEnd = ss.PendingTotal()
	accounted := res.OnPrimary + res.OnStandby + res.PendingAtEnd
	if accounted < res.Updates {
		res.LostInFlight = res.Updates - accounted
	}
	if fo.Failovers > 0 {
		// Detection relative to the actual crash instant.
		res.DetectionUs = fo.LastDetection.Seconds() * 1e6
	}
	res.HeartbeatsSent = fo.HeartbeatsSent

	t := &Table{
		ID:      "E8f",
		Title:   "§7 robustness: memory-server crash and data-plane failover",
		Columns: []string{"metric", "value"},
	}
	t.AddRow("heartbeat interval", fmt.Sprintf("%v", cfg.HeartbeatInterval))
	t.AddRow("failure detection + switchover", fmt.Sprintf("%.0f µs", res.DetectionUs))
	t.AddRow("updates counted", fmt.Sprintf("%d", res.Updates))
	t.AddRow("committed to crashed primary", fmt.Sprintf("%d (lost with the server)", res.OnPrimary))
	t.AddRow("committed to standby", fmt.Sprintf("%d", res.OnStandby))
	t.AddRow("pending on switch at end", fmt.Sprintf("%d", res.PendingAtEnd))
	t.AddRow("lost in flight at crash", fmt.Sprintf("%d", res.LostInFlight))
	t.AddNote("remote memory is a performance tier: state on the dead server is gone, but")
	t.AddNote("the primitive redirects within a few heartbeats and loses only in-flight ops")
	return t, res
}
