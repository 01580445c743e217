package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"gem"
	"gem/internal/netsim"
	"gem/internal/sim"
	"gem/internal/switchsim"
	"gem/internal/wire"
)

// env is what a workload builder gets: the seed its inputs come from, the
// size scale, and the tracer (nil on untraced episodes).
type env struct {
	seed  int64
	scale float64
	tr    *tracer

	newS, establishS, populateS float64 // host seconds inside each gem set-up call
}

// count scales a workload's base size, never below lo.
func (e *env) count(base, lo int) int {
	return max(lo, int(math.Round(float64(base)*e.scale)))
}

// rng returns the named input substream of the seed: each input a workload
// generates draws from its own stream, so adding one leaves the others alone.
func (e *env) rng(name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(e.seed ^ int64(h.Sum64())))
}

// phase times one gem set-up call into slot, as a span when tracing.
func (e *env) phase(id spanID, slot *float64, fn func() error) error {
	e.tr.begin(id)
	t0 := time.Now()
	err := fn()
	*slot += time.Since(t0).Seconds()
	e.tr.end()
	return err
}

func (e *env) newTestbed(opts gem.Options) (tb *gem.Testbed, err error) {
	opts.Seed = e.seed
	err = e.phase(spanNew, &e.newS, func() error {
		tb, err = gem.New(opts)
		return err
	})
	return tb, err
}

func (e *env) establish(b *bed, mem int, spec gem.ChannelSpec) (ch *gem.Channel, err error) {
	err = e.phase(spanEstablish, &e.establishS, func() error {
		ch, err = b.tb.Establish(mem, spec)
		return err
	})
	if err == nil {
		b.chans = append(b.chans, ch)
	}
	return ch, err
}

// install makes fn the switch program. Untraced, that is the facade's
// SetPipeline. Traced, the same dispatch-then-fn order is installed directly
// so that the pipeline and Dispatcher.Dispatch each get a span.
func (e *env) install(tb *gem.Testbed, fn func(ctx *gem.Context)) {
	if e.tr == nil {
		tb.SetPipeline(fn)
		return
	}
	tr := e.tr
	tb.Switch.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		tr.begin(spanPipeline)
		tr.begin(spanDispatch)
		handled := tb.Dispatcher.Dispatch(ctx)
		tr.end()
		if !handled {
			fn(ctx)
		}
		tr.end()
	})
}

// tracedHooks wraps the EgressHooks a workload installs.
type tracedHooks struct {
	inner switchsim.EgressHooks
	tr    *tracer
}

func (h tracedHooks) PacketEnqueued(port, queueBytes int) {
	h.tr.begin(spanHooks)
	h.inner.PacketEnqueued(port, queueBytes)
	h.tr.end()
}

func (h tracedHooks) PacketDeparted(port, queueBytes int) {
	h.tr.begin(spanHooks)
	h.inner.PacketDeparted(port, queueBytes)
	h.tr.end()
}

func (e *env) installHooks(tb *gem.Testbed, h switchsim.EgressHooks) {
	if e.tr != nil {
		h = tracedHooks{inner: h, tr: e.tr}
	}
	tb.Switch.Hooks = h
}

// bed is one episode's wired testbed and what is needed to drive and check it.
type bed struct {
	tb    *gem.Testbed
	chans []*gem.Channel

	// start injects the first events; verify runs at quiescence and returns
	// the operations attempted and failed.
	start  func()
	verify func() (attempted, failed int64)

	// lat holds simulated per-operation latencies (send → sink stamps). A
	// workload whose operations are not frames supplies latHist instead.
	lat     []int32
	latHist func() gem.LatencyHist

	// The primitives in use; nil where the workload bypasses them.
	ss *gem.StateStore
	lt *gem.LookupTable
	pb *gem.PacketBuffer

	genFrames int64 // frames the generators handed to netsim
}

// Frame stamp carried at the start of the UDP payload of every generated
// frame: send time (sim ns), flow and sequence number in the flow.
const (
	stampOff = wire.EthernetLen + wire.IPv4Len + wire.UDPLen
	stampLen = 16
)

func putStamp(b []byte, at sim.Time, flow, seq uint32) {
	binary.BigEndian.PutUint64(b[0:8], uint64(at))
	binary.BigEndian.PutUint32(b[8:12], flow)
	binary.BigEndian.PutUint32(b[12:16], seq)
}

func readStamp(frame []byte) (at sim.Time, flow, seq uint32) {
	b := frame[stampOff : stampOff+stampLen]
	return sim.Time(binary.BigEndian.Uint64(b[0:8])),
		binary.BigEndian.Uint32(b[8:12]), binary.BigEndian.Uint32(b[12:16])
}

// arrived reads a delivered frame's stamp and records its simulated latency.
func (b *bed) arrived(frame []byte) (flow, seq uint32) {
	at, flow, seq := readStamp(frame)
	b.lat = append(b.lat, int32(b.tb.Now().Sub(at)))
	return flow, seq
}

// pacer is the benchmark's open-loop generator: independent arrivals
// (exponential gaps drawn from the seed) at a mean wire rate, sent whatever
// the system does. What the line cannot take waits in the host port's FIFO,
// and the send time is stamped before that wait, so a stall shows as latency,
// not as less load.
type pacer struct {
	b       *bed
	tr      *tracer
	eng     *sim.Engine
	port    *netsim.Port
	gaps    *rand.Rand
	meanGap float64 // ns between frames at the mean rate
	due     float64 // ns since t0 the next frame is due
	t0      sim.Time
	n, sent int
	build   func(i int, now sim.Time) []byte
	fire    func()
}

// startPacer schedules n frames from port at a mean of rateBps on the wire;
// gaps is the pacer's own stream of the seed.
func startPacer(b *bed, tr *tracer, port *netsim.Port, frameLen int, rateBps float64, gaps *rand.Rand, n int,
	build func(i int, now sim.Time) []byte) {
	p := &pacer{
		b: b, tr: tr, eng: b.tb.Engine, port: port, n: n, build: build, gaps: gaps,
		meanGap: float64(frameLen+wire.EthernetFramingOverhead) * 8 / rateBps * 1e9,
		t0:      b.tb.Now(),
	}
	p.fire = p.step
	p.schedule()
}

func (p *pacer) schedule() {
	p.due += p.gaps.ExpFloat64() * p.meanGap
	p.eng.ScheduleAt(p.t0.Add(sim.Duration(p.due)), p.fire)
}

func (p *pacer) step() {
	p.tr.begin(spanGen)
	f := p.build(p.sent, p.eng.Now())
	p.tr.begin(spanSend)
	p.port.Send(f) // a refused frame never reaches its sink: verify counts it, netsim.tx_drops shows it
	p.tr.end()
	p.b.genFrames++
	p.sent++
	if p.sent < p.n {
		p.schedule()
	}
	p.tr.end()
}

// flowOrder checks that each flow's frames arrive in sequence and counts the
// ones that do.
type flowOrder struct {
	next    []uint32
	inOrder int64
}

func newFlowOrder(flows int) *flowOrder { return &flowOrder{next: make([]uint32, flows)} }

func (o *flowOrder) arrive(flow, seq uint32) {
	if int(flow) < len(o.next) && seq == o.next[flow] {
		o.inOrder++
	}
	if int(flow) < len(o.next) && seq >= o.next[flow] {
		o.next[flow] = seq + 1
	}
}

// udpFrame builds one stamped data frame from host src to host dst.
func udpFrame(tb *gem.Testbed, src, dst, frameLen int, srcPort, dstPort uint16, stamp []byte) []byte {
	s, d := tb.Hosts[src], tb.Hosts[dst]
	return wire.BuildDataFrameInto(wire.DefaultPool, s.MAC, d.MAC, s.IP, d.IP, srcPort, dstPort, frameLen, stamp)
}

// episode is everything one build-drive-verify pass measured.
type episode struct {
	setupS, runS       float64
	newS, establishS   float64
	populateS, statsS  float64
	attempted, failed  int64
	frames             float64 // wire frames: Σ port TxMeter.Frames
	mallocs, allocB    float64 // runtime.MemStats deltas over the run
	gcCycles           float64
	gcPauseMs          float64
	heapAllocMB        float64
	peakRSSMB          float64 // VmHWM at quiescence, reset when the episode began
	poolMissRatio      float64
	simNs              int64 // final simulated clock
	simP50Us, simP99Us float64
	latSamples         int
	counted            map[string]float64
	digest             string

	// Traced episodes only.
	tr          *tracer
	tap         *tap
	peakPending int
	meanPending float64
}

// runEpisode builds a fresh testbed from the seed, drives it to quiescence
// and verifies the outcome. A hard error means the episode proved nothing:
// the pool leaked, events were left over, a memory server's CPU ran.
func runEpisode(w *workload, seed int64, scale float64, traced bool) (*episode, error) {
	runtime.GC() // the previous testbed's regions are garbage; reuse them
	resetPeakRSS()

	e := &env{seed: seed, scale: scale}
	if traced {
		e.tr = newTracer()
	}
	ep := &episode{tr: e.tr}
	poolBefore := wire.DefaultPool.Stats()

	t0 := time.Now()
	b, err := w.build(e)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	tb := b.tb
	if traced {
		ep.tap = installTap(tb, e.tr)
	}
	ep.setupS = time.Since(t0).Seconds()
	ep.newS, ep.establishS, ep.populateS = e.newS, e.establishS, e.populateS

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	b.start()
	if traced {
		ep.peakPending, ep.meanPending = stepTraced(tb.Engine, e.tr)
	} else {
		tb.Run()
	}
	ep.runS = time.Since(t1).Seconds()
	runtime.ReadMemStats(&m1)

	ep.mallocs = float64(m1.Mallocs - m0.Mallocs)
	ep.allocB = float64(m1.TotalAlloc - m0.TotalAlloc)
	ep.gcCycles = float64(m1.NumGC - m0.NumGC)
	ep.gcPauseMs = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	ep.heapAllocMB = float64(m1.HeapAlloc) / (1 << 20)
	ep.simNs = int64(tb.Now())
	ep.peakRSSMB = peakRSSMB()

	ep.attempted, ep.failed = b.verify()

	poolAfter := wire.DefaultPool.Stats()
	balance := poolAfter.Balance() - poolBefore.Balance()
	if balance != 0 {
		return nil, fmt.Errorf("%s: wire.DefaultPool unbalanced by %d buffers at quiescence", w.name, balance)
	}
	if n := tb.PendingEvents(); n != 0 {
		return nil, fmt.Errorf("%s: %d events pending after the run", w.name, n)
	}
	if n := tb.ServerCPUOps(); n != 0 {
		return nil, fmt.Errorf("%s: memory-server CPUs handled %d packets", w.name, n)
	}
	if gets := poolGets(poolAfter) - poolGets(poolBefore); gets > 0 {
		ep.poolMissRatio = float64(poolAfter.Misses-poolBefore.Misses+poolAfter.OversizeGets-poolBefore.OversizeGets) / float64(gets)
	}

	ts := time.Now()
	snap := tb.Stats()
	ep.statsS = time.Since(ts).Seconds()
	ep.counted = collect(b, &snap)
	ep.counted["wire.pool_balance"] = float64(balance)
	ep.frames = ep.counted["netsim.frames"]

	var p50, p99 float64
	if b.latHist != nil {
		h := b.latHist()
		ep.latSamples = int(h.Count)
		p50, p99 = histQuantileNs(&h, 0.50), histQuantileNs(&h, 0.99)
	} else {
		ep.latSamples = len(b.lat)
		p50, p99 = quantiles(b.lat)
	}
	ep.simP50Us, ep.simP99Us = p50/1e3, p99/1e3
	ep.digest = simDigest(ep.counted, ep.simNs, remoteChecksum(b))

	if w.bypassesMemory {
		for k, v := range ep.counted {
			if v != 0 && (strings.HasPrefix(k, "rnic.") || strings.HasPrefix(k, "verbs.") || strings.HasPrefix(k, "core.")) {
				return nil, fmt.Errorf("%s: %s = %v, but this workload must bypass remote memory", w.name, k, v)
			}
		}
	}
	return ep, nil
}

func poolGets(s wire.PoolStats) int64 { return s.Hits + s.Misses + s.OversizeGets }

// stepTraced drives the engine one event at a time under a root span per
// event, sampling the heap depth each event fires at.
func stepTraced(eng *sim.Engine, tr *tracer) (peak int, mean float64) {
	var sum, n float64
	tr.begin(spanEvent)
	for {
		p := eng.Pending()
		if !eng.Step() {
			break
		}
		peak = max(peak, p)
		sum += float64(p)
		n++
		tr.lap()
	}
	tr.end()
	if n > 0 {
		mean = sum / n
	}
	return peak, mean
}

// collect reads every layer's exported counters into the counted metrics:
// the ones that must repeat exactly for a seed.
func collect(b *bed, snap *gem.StatsSnapshot) map[string]float64 {
	tb := b.tb
	m := make(map[string]float64, 48)

	devs := []netsim.Device{tb.Switch}
	for _, h := range tb.Hosts {
		devs = append(devs, h)
	}
	for _, n := range tb.MemNICs {
		devs = append(devs, n)
	}
	var frames, wireBytes, txDrops, faultDrops int64
	peakQueue := 0
	for _, d := range devs {
		for _, p := range tb.Net.Ports(d) {
			frames += p.TxMeter.Frames
			wireBytes += p.TxMeter.Bytes
			txDrops += p.TxDrops
			faultDrops += p.FaultDrops + p.LossDrops
			peakQueue = max(peakQueue, p.PeakQueuedFrames())
		}
	}
	events := float64(tb.Engine.Executed)
	m["sim.events"] = events
	m["sim.events_per_frame"] = events / float64(max(frames, 1))
	m["netsim.frames"] = float64(frames)
	m["netsim.wire_mb"] = float64(wireBytes) / 1e6
	m["netsim.tx_drops"] = float64(txDrops)
	m["netsim.fault_drops"] = float64(faultDrops)
	m["netsim.peak_queue_frames"] = float64(peakQueue)

	sw := tb.Switch
	queuePeak := 0
	for i := 0; i < sw.NumPorts(); i++ {
		queuePeak = max(queuePeak, sw.QueuePeak(i))
	}
	m["switchsim.rx_frames"] = float64(sw.Stats.RxFrames)
	m["switchsim.buffer_drops"] = float64(sw.Stats.BufferDrops)
	m["switchsim.queue_peak_bytes"] = float64(queuePeak)
	m["switchsim.recirculated"] = float64(sw.Stats.Recirculated)

	var rs struct{ w, r, a, wb, rb, ring, nak, dup int64 }
	for _, n := range tb.MemNICs {
		s := &n.Stats
		rs.w += s.ExecWrites
		rs.r += s.ExecReads
		rs.a += s.ExecAtomics
		rs.wb += s.WriteBytes
		rs.rb += s.ReadBytes
		rs.ring += s.RxRingDrops
		rs.nak += s.NaksSent
		rs.dup += s.DupRequests
	}
	m["rnic.exec_writes"] = float64(rs.w)
	m["rnic.exec_reads"] = float64(rs.r)
	m["rnic.exec_atomics"] = float64(rs.a)
	m["rnic.write_mb"] = float64(rs.wb) / 1e6
	m["rnic.read_mb"] = float64(rs.rb) / 1e6
	m["rnic.rx_ring_drops"] = float64(rs.ring)
	m["rnic.naks_sent"] = float64(rs.nak)
	m["rnic.dup_requests"] = float64(rs.dup)

	t := &snap.Transport
	posted := t.Read.Posted + t.Write.Posted + t.FetchAdd.Posted
	completed := t.Read.Completed + t.Write.Completed + t.FetchAdd.Completed
	retried := t.Read.Retried + t.Write.Retried + t.FetchAdd.Retried
	// A retransmitter resends below the work queue, so its resends count as
	// attempts here too: useful_ratio is answered requests over requests sent.
	// WRITEs are fire-and-forget (no completion), so they are left out.
	sentReqs := t.Read.Posted + t.FetchAdd.Posted + retried + snap.Retransmits
	m["verbs.posted"] = float64(posted)
	m["verbs.completed"] = float64(completed)
	m["verbs.retried"] = float64(retried)
	m["verbs.refused"] = float64(t.Read.Refused + t.Write.Refused + t.FetchAdd.Refused)
	m["verbs.stale"] = float64(t.Read.Stale + t.Write.Stale + t.FetchAdd.Stale)
	m["verbs.errors"] = float64(t.Errors.Total())
	m["verbs.useful_ratio"] = 0
	if sentReqs > 0 {
		m["verbs.useful_ratio"] = float64(t.Read.Completed+t.FetchAdd.Completed) / float64(sentReqs)
	}
	m["verbs.mirrored"] = float64(t.Mirror.MirroredFAAs + t.Mirror.MirroredWrites)
	m["verbs.mirror_lag_max"] = float64(t.Mirror.Lag.Max)

	m["core.retransmits"] = float64(snap.Retransmits)
	m["core.naks_seen"] = float64(snap.NaksSeen)
	m["core.credit_refused"] = float64(snap.CreditRefused)
	m["core.faa_per_update"] = 0
	m["core.cache_hit_ratio"] = 0
	m["core.spilled_frames"] = 0
	m["core.ring_peak_entries"] = 0
	if b.ss != nil && b.ss.Stats.Updates > 0 {
		m["core.faa_per_update"] = float64(b.ss.Stats.FAAIssued) / float64(b.ss.Stats.Updates)
	}
	if b.lt != nil {
		if n := b.lt.Stats.CacheHits + b.lt.Stats.RemoteLookups; n > 0 {
			m["core.cache_hit_ratio"] = float64(b.lt.Stats.CacheHits) / float64(n)
		}
	}
	if b.pb != nil {
		m["core.spilled_frames"] = float64(b.pb.Stats.Stored)
		m["core.ring_peak_entries"] = float64(b.pb.Stats.MaxDepth)
	}

	var region int
	for _, ch := range b.chans {
		region += ch.Size
	}
	m["gem.region_mb"] = float64(region) / (1 << 20)
	m["gen.frames"] = float64(b.genFrames)
	return m
}

// remoteChecksum folds a sample of every region's words (one per 4 KiB, and
// the whole of small regions) into one number, through the facade's
// operator-side read so it does not depend on how regions are stored.
func remoteChecksum(b *bed) uint64 {
	h := fnv.New64a()
	var word [8]byte
	for _, ch := range b.chans {
		stride := 8
		if ch.Size > 1<<20 {
			stride = 4096
		}
		for off := 0; off+8 <= ch.Size; off += stride {
			v, err := b.tb.ReadRemoteCounter(ch, off)
			if err != nil {
				continue
			}
			binary.BigEndian.PutUint64(word[:], v)
			h.Write(word[:])
		}
	}
	return h.Sum64()
}
