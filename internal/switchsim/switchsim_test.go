package switchsim

import (
	"bytes"
	"testing"

	"gem/internal/netsim"
	"gem/internal/sim"
	"gem/internal/wire"
)

// testbed wires nHosts hosts to one switch with an L2 pipeline.
func testbed(t *testing.T, nHosts int, cfg Config) (*netsim.Net, *Switch, []*netsim.Host) {
	t.Helper()
	n := netsim.New(1)
	sw := New("tor", n.Engine, cfg)
	hosts := make([]*netsim.Host, nHosts)
	ports := make([]*netsim.Port, nHosts)
	for i := range hosts {
		hosts[i] = netsim.NewHost("h", uint32(i+1))
		sp, _ := n.Connect(sw, hosts[i], netsim.Link40G())
		ports[i] = sp
	}
	sw.Bind(ports...)
	l2, err := NewL2Pipeline(sw, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hosts {
		if err := l2.Learn(h.MAC, i); err != nil {
			t.Fatal(err)
		}
	}
	sw.Pipeline = l2
	return n, sw, hosts
}

func frameBetween(a, b *netsim.Host, size int) []byte {
	return wire.BuildDataFrame(a.MAC, b.MAC, a.IP, b.IP, 1000, 2000, size, nil)
}

func TestL2Forwarding(t *testing.T) {
	n, sw, hosts := testbed(t, 3, Config{})
	n.Ports(hosts[0])[0].Send(frameBetween(hosts[0], hosts[2], 100))
	n.Engine.Run()
	if hosts[2].Received != 1 {
		t.Fatalf("h2 received %d", hosts[2].Received)
	}
	if hosts[1].Received != 0 {
		t.Fatal("frame leaked to h1")
	}
	if sw.Stats.RxFrames != 1 || sw.Stats.TxFrames != 1 {
		t.Fatalf("stats = %+v", sw.Stats)
	}
}

func TestL2FloodOnMiss(t *testing.T) {
	n, _, hosts := testbed(t, 4, Config{})
	unknown := wire.MACFromUint64(0xEEEE)
	f := wire.BuildDataFrame(hosts[0].MAC, unknown, hosts[0].IP, wire.IP4{}, 1, 2, 100, nil)
	n.Ports(hosts[0])[0].Send(f)
	n.Engine.Run()
	for i := 1; i < 4; i++ {
		if hosts[i].Received != 1 {
			t.Fatalf("host %d received %d, want flooded copy", i, hosts[i].Received)
		}
	}
	if hosts[0].Received != 0 {
		t.Fatal("flood echoed to ingress port")
	}
}

// TestL2FloodClonesAreDistinctBuffers locks in the Emit ownership contract
// for the flood path: each enqueued frame is recycled independently at its
// terminal consumption point, so flooding one buffer to three ports would
// triple-release it and hand the same memory to two owners. Every flooded
// port must therefore be handed its own intact copy.
func TestL2FloodClonesAreDistinctBuffers(t *testing.T) {
	n, sw, hosts := testbed(t, 4, Config{})
	unknown := wire.MACFromUint64(0xEEEE)
	f := wire.BuildDataFrame(hosts[0].MAC, unknown, hosts[0].IP, wire.IP4{}, 1, 2, 100, nil)
	want := append([]byte(nil), f...)

	bufs := map[*byte]bool{}
	var tx [][]byte
	sw.TraceFn = func(event string, port int, frame []byte) {
		if event == "tx" {
			bufs[&frame[0]] = true
			tx = append(tx, append([]byte(nil), frame...))
		}
	}
	n.Ports(hosts[0])[0].Send(f)
	n.Engine.Run()

	if len(tx) != 3 {
		t.Fatalf("flooded %d frames, want 3", len(tx))
	}
	if len(bufs) != 3 {
		t.Fatalf("flood reused a buffer: %d distinct buffers for 3 frames", len(bufs))
	}
	for i, got := range tx {
		if !bytes.Equal(got, want) {
			t.Fatalf("flooded copy %d corrupted", i)
		}
	}
}

// TestNoRouteRecyclesFrame: when nothing was enqueued — the pipeline
// neither emitted nor dropped, or there is no pipeline at all — the switch
// is the frame's terminal consumer and must return it to the pool.
func TestNoRouteRecyclesFrame(t *testing.T) {
	n, sw, hosts := testbed(t, 2, Config{})
	sw.Pipeline = PipelineFunc(func(ctx *Context) {}) // no emit, no drop
	before := wire.DefaultPool.Stats()
	n.Ports(hosts[0])[0].Send(frameBetween(hosts[0], hosts[1], 100))
	n.Engine.Run()
	if sw.Stats.NoRoute != 1 {
		t.Fatalf("NoRoute = %d, want 1", sw.Stats.NoRoute)
	}
	if d := wire.DefaultPool.Stats().Puts - before.Puts; d != 1 {
		t.Fatalf("pool puts delta = %d, want 1 (no-route frame recycled)", d)
	}

	sw.Pipeline = nil
	before = wire.DefaultPool.Stats()
	n.Ports(hosts[0])[0].Send(frameBetween(hosts[0], hosts[1], 100))
	n.Engine.Run()
	if d := wire.DefaultPool.Stats().Puts - before.Puts; d != 1 {
		t.Fatalf("pool puts delta = %d, want 1 (nil-pipeline frame recycled)", d)
	}
}

func TestPipelineLatency(t *testing.T) {
	n, _, hosts := testbed(t, 2, Config{PipelineLatency: 450})
	var at sim.Time
	hosts[1].Handler = func(_ *netsim.Port, _ []byte) { at = n.Engine.Now() }
	n.Ports(hosts[0])[0].Send(frameBetween(hosts[0], hosts[1], 124))
	n.Engine.Run()
	// host→switch: ser (124+24)*8/40G=29.6ns + 250 prop; pipeline 450;
	// switch→host: same ser + prop. Total ≈ 29+250+450+29+250 = 1008.
	if at < 1000 || at > 1060 {
		t.Fatalf("end-to-end = %d ns, want ≈1010", at)
	}
}

func TestQueueBuildsUnderCongestion(t *testing.T) {
	// Two senders at line rate into one receiver: the egress queue of the
	// receiver's port must grow.
	n, sw, hosts := testbed(t, 3, Config{})
	for i := 0; i < 100; i++ {
		n.Ports(hosts[0])[0].Send(frameBetween(hosts[0], hosts[2], 1500))
		n.Ports(hosts[1])[0].Send(frameBetween(hosts[1], hosts[2], 1500))
	}
	n.Engine.RunFor(40 * sim.Microsecond)
	if sw.QueuePeak(2) < 10*1500 {
		t.Fatalf("peak queue = %d, expected significant buildup", sw.QueuePeak(2))
	}
	n.Engine.Run()
	if hosts[2].Received != 200 {
		t.Fatalf("received %d/200", hosts[2].Received)
	}
}

func TestSharedBufferTailDrop(t *testing.T) {
	// Tiny buffer, 2:1 incast: most of the burst must be dropped.
	n, sw, hosts := testbed(t, 3, Config{BufferBytes: 8 * 1500})
	for i := 0; i < 100; i++ {
		n.Ports(hosts[0])[0].Send(frameBetween(hosts[0], hosts[2], 1500))
		n.Ports(hosts[1])[0].Send(frameBetween(hosts[1], hosts[2], 1500))
	}
	n.Engine.Run()
	if sw.Stats.BufferDrops == 0 {
		t.Fatal("no buffer drops with 12KB buffer and 2:1 incast")
	}
	if got := hosts[2].Received + sw.Stats.BufferDrops; got != 200 {
		t.Fatalf("delivered+dropped = %d, want 200", got)
	}
	if sw.BufferUsed() != 0 {
		t.Fatalf("buffer not drained: %d", sw.BufferUsed())
	}
}

func TestPerPortCap(t *testing.T) {
	n, sw, hosts := testbed(t, 3, Config{PerPortCapBytes: 4 * 1500})
	for i := 0; i < 50; i++ {
		n.Ports(hosts[0])[0].Send(frameBetween(hosts[0], hosts[2], 1500))
		n.Ports(hosts[1])[0].Send(frameBetween(hosts[1], hosts[2], 1500))
	}
	n.Engine.Run()
	if sw.QueueDrops(2) == 0 {
		t.Fatal("per-port cap not enforced")
	}
	if sw.QueuePeak(2) > 4*1500 {
		t.Fatalf("peak %d exceeded cap", sw.QueuePeak(2))
	}
}

func TestEgressHooks(t *testing.T) {
	n, sw, hosts := testbed(t, 2, Config{})
	var enq, dep int
	sw.Hooks = hooksFunc{
		onEnq: func(port, qlen int) { enq++ },
		onDep: func(port, qlen int) { dep++ },
	}
	for i := 0; i < 5; i++ {
		n.Ports(hosts[0])[0].Send(frameBetween(hosts[0], hosts[1], 200))
	}
	n.Engine.Run()
	if enq != 5 || dep != 5 {
		t.Fatalf("hooks: enq=%d dep=%d, want 5/5", enq, dep)
	}
}

type hooksFunc struct {
	onEnq, onDep func(port, qlen int)
}

func (h hooksFunc) PacketEnqueued(p, q int) { h.onEnq(p, q) }
func (h hooksFunc) PacketDeparted(p, q int) { h.onDep(p, q) }

func TestRecirculation(t *testing.T) {
	n := netsim.New(1)
	sw := New("tor", n.Engine, Config{})
	h := netsim.NewHost("h", 1)
	sp, _ := n.Connect(sw, h, netsim.Link40G())
	sw.Bind(sp)
	passes := 0
	sw.Pipeline = PipelineFunc(func(ctx *Context) {
		passes++
		if ctx.InPort == RecirculationPort {
			ctx.Emit(0, ctx.Frame)
			return
		}
		ctx.Recirculate(ctx.Frame)
	})
	h2 := netsim.NewHost("src", 2)
	sw.Receive(sp, frameBetween(h2, h, 100))
	n.Engine.Run()
	if passes != 2 {
		t.Fatalf("pipeline passes = %d, want 2", passes)
	}
	if sw.Stats.Recirculated != 1 {
		t.Fatalf("recirculated = %d", sw.Stats.Recirculated)
	}
	if h.Received != 1 {
		t.Fatal("recirculated frame not delivered")
	}
}

func TestNoPipelineDrops(t *testing.T) {
	n := netsim.New(1)
	sw := New("tor", n.Engine, Config{})
	h := netsim.NewHost("h", 1)
	sp, _ := n.Connect(sw, h, netsim.Link40G())
	sw.Bind(sp)
	sw.Receive(sp, frameBetween(h, h, 100))
	n.Engine.Run()
	if sw.Stats.NoRoute != 1 {
		t.Fatalf("NoRoute = %d", sw.Stats.NoRoute)
	}
}

func TestEmitInvalidPortPanics(t *testing.T) {
	n := netsim.New(1)
	sw := New("tor", n.Engine, Config{})
	h := netsim.NewHost("h", 1)
	sp, _ := n.Connect(sw, h, netsim.Link40G())
	sw.Bind(sp)
	sw.Pipeline = PipelineFunc(func(ctx *Context) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic emitting to invalid port")
			}
		}()
		ctx.Emit(9, ctx.Frame)
	})
	sw.Receive(sp, frameBetween(h, h, 100))
	n.Engine.Run()
}

func TestSRAMBudget(t *testing.T) {
	s := NewSRAMBudget(1000)
	if err := s.Alloc("a", 600); err != nil {
		t.Fatal(err)
	}
	if err := s.Alloc("b", 500); err == nil {
		t.Fatal("over-allocation accepted")
	}
	if s.Used() != 600 || s.Remaining() != 400 {
		t.Fatalf("used/rem = %d/%d", s.Used(), s.Remaining())
	}
	s.Free("a", 600)
	if s.Used() != 0 {
		t.Fatal("free did not release")
	}
	if err := s.Alloc("c", -1); err == nil {
		t.Fatal("negative allocation accepted")
	}
	s.MustAlloc("d", 100)
	if s.Allocations()["d"] != 100 {
		t.Fatal("allocations map wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustAlloc should panic on exhaustion")
		}
	}()
	s.MustAlloc("e", 10000)
}

func TestExactTable(t *testing.T) {
	s := NewSRAMBudget(1 << 20)
	tab, err := NewExactTable[uint32, string](s, "t", 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(2, "b"); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(3, "c"); err == nil {
		t.Fatal("full table accepted insert")
	}
	if err := tab.Insert(1, "a2"); err != nil {
		t.Fatal("replace of existing entry rejected")
	}
	if v, ok := tab.Lookup(1); !ok || v != "a2" {
		t.Fatalf("lookup = %q,%v", v, ok)
	}
	if _, ok := tab.Lookup(9); ok {
		t.Fatal("phantom hit")
	}
	if tab.Hits != 1 || tab.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d", tab.Hits, tab.Misses)
	}
	if tab.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", tab.HitRate())
	}
	tab.Delete(1)
	if tab.Len() != 1 {
		t.Fatalf("len = %d", tab.Len())
	}
	if tab.Capacity() != 2 {
		t.Fatalf("capacity = %d", tab.Capacity())
	}
}

func TestExactTableSRAMExhaustion(t *testing.T) {
	s := NewSRAMBudget(100)
	if _, err := NewExactTable[int, int](s, "big", 1000, 16); err == nil {
		t.Fatal("table larger than SRAM accepted")
	}
}

func TestCacheTableFIFOEviction(t *testing.T) {
	s := NewSRAMBudget(1 << 20)
	c, err := NewCacheTable[int, int](s, "cache", 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(1, 10)
	c.Put(2, 20)
	c.Put(3, 30)
	c.Put(4, 40) // evicts 1
	if _, ok := c.Lookup(1); ok {
		t.Fatal("oldest entry not evicted")
	}
	if v, ok := c.Lookup(4); !ok || v != 40 {
		t.Fatal("new entry missing")
	}
	if c.Evictions != 1 {
		t.Fatalf("evictions = %d", c.Evictions)
	}
	// Updating an existing key must not evict.
	c.Put(4, 44)
	if c.Evictions != 1 {
		t.Fatal("update caused eviction")
	}
	if v, _ := c.Lookup(4); v != 44 {
		t.Fatal("update lost")
	}
}

func TestRegisterArray(t *testing.T) {
	s := NewSRAMBudget(1 << 10)
	r, err := NewRegisterArray(s, "regs", 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Used() != 32 {
		t.Fatalf("SRAM used = %d, want 32", s.Used())
	}
	r.Set(0, 7)
	if r.Get(0) != 7 {
		t.Fatal("set/get broken")
	}
	if got := r.Add(0, 3); got != 10 {
		t.Fatalf("add = %d", got)
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d", r.Len())
	}
}

func TestParseErrorCounted(t *testing.T) {
	n := netsim.New(1)
	sw := New("tor", n.Engine, Config{})
	h := netsim.NewHost("h", 1)
	sp, _ := n.Connect(sw, h, netsim.Link40G())
	sw.Bind(sp)
	dropped := false
	sw.Pipeline = PipelineFunc(func(ctx *Context) {
		if ctx.Pkt == nil && ctx.ParseErr != nil {
			dropped = true
		}
		ctx.Drop()
	})
	// Runt frame, pooled: the switch recycles whatever it receives, and the
	// package leak check audits the pool ledger.
	runt := wire.DefaultPool.Get(3)
	copy(runt, []byte{1, 2, 3})
	sw.Receive(sp, runt)
	n.Engine.Run()
	if sw.Stats.ParseErrors != 1 || !dropped {
		t.Fatalf("parse errors = %d, handler saw error = %v", sw.Stats.ParseErrors, dropped)
	}
}

func TestL2SRAMExhaustionFails(t *testing.T) {
	n := netsim.New(1)
	sw := New("tor", n.Engine, Config{SRAMBytes: 1024})
	if _, err := NewL2Pipeline(sw, 1<<20); err == nil {
		t.Fatal("oversized FIB accepted")
	}
}

func TestPFCPausesEgress(t *testing.T) {
	n, sw, hosts := testbed(t, 2, Config{})
	// Queue three frames toward host 1, then pause that port.
	for i := 0; i < 3; i++ {
		sw.Receive(sw.Port(0), frameBetween(hosts[0], hosts[1], 1000))
	}
	pause := wire.BuildPFC(hosts[1].MAC, 0xFFFF)
	sw.Receive(sw.Port(1), pause)
	n.Engine.RunFor(20 * sim.Microsecond)
	if hosts[1].Received > 1 {
		t.Fatalf("paused port delivered %d frames", hosts[1].Received)
	}
	if sw.Stats.PFCFrames != 1 {
		t.Fatalf("PFC frames = %d", sw.Stats.PFCFrames)
	}
	// Resume: everything drains.
	sw.Receive(sw.Port(1), wire.BuildPFC(hosts[1].MAC, 0))
	n.Engine.Run()
	if hosts[1].Received != 3 {
		t.Fatalf("after resume delivered %d/3", hosts[1].Received)
	}
}

func TestPFCPauseExpires(t *testing.T) {
	n, sw, hosts := testbed(t, 2, Config{})
	sw.Receive(sw.Port(0), frameBetween(hosts[0], hosts[1], 1000))
	// Short pause: 100 quanta at 40G = 1.28 µs.
	sw.Receive(sw.Port(1), wire.BuildPFC(hosts[1].MAC, 100))
	n.Engine.Run()
	if hosts[1].Received != 1 {
		t.Fatal("frame never delivered after pause expiry")
	}
	if got := n.Engine.Now(); got < sim.Time(1280) {
		t.Fatalf("delivery at %v, before the pause expired", got)
	}
}

func TestPFCOnlyAffectsOnePort(t *testing.T) {
	n, sw, hosts := testbed(t, 3, Config{})
	sw.Receive(sw.Port(1), wire.BuildPFC(hosts[1].MAC, 0xFFFF))
	sw.Receive(sw.Port(0), frameBetween(hosts[0], hosts[2], 500))
	n.Engine.RunFor(10 * sim.Microsecond)
	if hosts[2].Received != 1 {
		t.Fatal("pause on port 1 blocked port 2")
	}
}

func TestECNMarkingAtThreshold(t *testing.T) {
	n, sw, hosts := testbed(t, 3, Config{ECNThresholdBytes: 5 * 1500})
	var ce, notCE int
	hosts[2].Handler = func(_ *netsim.Port, frame []byte) {
		var p wire.Packet
		if err := p.DecodeFromBytes(frame); err == nil && p.HasIPv4 {
			if p.IP.ECN == 3 {
				ce++
			} else {
				notCE++
			}
		}
	}
	for i := 0; i < 60; i++ {
		n.Ports(hosts[0])[0].Send(frameBetween(hosts[0], hosts[2], 1500))
		n.Ports(hosts[1])[0].Send(frameBetween(hosts[1], hosts[2], 1500))
	}
	n.Engine.Run()
	if ce == 0 {
		t.Fatal("no packets CE-marked despite deep queue")
	}
	if notCE == 0 {
		t.Fatal("every packet marked: threshold not honoured early on")
	}
	if sw.Stats.ECNMarked != int64(ce) {
		t.Fatalf("stats %d != observed %d", sw.Stats.ECNMarked, ce)
	}
	// Marked packets must still carry a valid IP checksum.
	var h wire.IPv4
	f := frameBetween(hosts[0], hosts[2], 100)
	defer wire.DefaultPool.Put(f)
	markECN(f)
	if err := h.DecodeFromBytes(f[wire.EthernetLen:]); err != nil {
		t.Fatal(err)
	}
	tmp := make([]byte, wire.IPv4Len)
	copy(tmp, f[wire.EthernetLen:])
	var h2 wire.IPv4
	_ = h2.DecodeFromBytes(tmp)
	h2.Put(tmp)
	for i := range tmp {
		if tmp[i] != f[wire.EthernetLen+i] {
			t.Fatal("checksum stale after ECN mark")
		}
	}
}

func TestECNMarkingDisabledByDefault(t *testing.T) {
	n, sw, hosts := testbed(t, 3, Config{})
	for i := 0; i < 60; i++ {
		n.Ports(hosts[0])[0].Send(frameBetween(hosts[0], hosts[2], 1500))
		n.Ports(hosts[1])[0].Send(frameBetween(hosts[1], hosts[2], 1500))
	}
	n.Engine.Run()
	if sw.Stats.ECNMarked != 0 {
		t.Fatalf("marked %d with ECN disabled", sw.Stats.ECNMarked)
	}
}

func TestMarkECNNonIPv4(t *testing.T) {
	frame := make([]byte, 64)
	var eth wire.Ethernet
	eth.EtherType = wire.EtherTypeTest
	eth.Put(frame)
	if markECN(frame) {
		t.Fatal("marked a non-IP frame")
	}
	if markECN([]byte{1, 2, 3}) {
		t.Fatal("marked a runt frame")
	}
}

func TestRDMAPriorityQueue(t *testing.T) {
	// Fill a port's queue with best-effort frames, then enqueue one RoCE
	// frame: with RDMAPriority it must depart before the backlog.
	n := netsim.New(1)
	sw := New("tor", n.Engine, Config{RDMAPriority: true})
	h := netsim.NewHost("h", 1)
	src := netsim.NewHost("src", 2)
	sp, _ := n.Connect(sw, h, netsim.Link40G())
	sw.Bind(sp)
	sw.Pipeline = PipelineFunc(func(ctx *Context) { ctx.Emit(0, ctx.Frame) })

	var order []string
	h.Handler = func(_ *netsim.Port, frame []byte) {
		if isRoCEFrame(frame) {
			order = append(order, "rdma")
		} else {
			order = append(order, "data")
		}
	}
	for i := 0; i < 10; i++ {
		sw.Receive(sp, frameBetween(src, h, 1500))
	}
	roce := wire.BuildFetchAdd(&wire.RoCEParams{
		SrcMAC: src.MAC, DstMAC: h.MAC,
		SrcIP: src.IP, DstIP: h.IP, DestQP: 1,
	}, 0, 1, 1)
	sw.Receive(sp, roce)
	n.Engine.Run()
	if len(order) != 11 {
		t.Fatalf("delivered %d/11", len(order))
	}
	pos := -1
	for i, kind := range order {
		if kind == "rdma" {
			pos = i
		}
	}
	// The RoCE frame arrived last but must overtake most of the backlog
	// (it can't preempt the frame already serializing).
	if pos > 2 {
		t.Fatalf("RDMA frame delivered at position %d of 11: no priority", pos)
	}
}

func TestRDMAPriorityOffIsFIFO(t *testing.T) {
	n := netsim.New(1)
	sw := New("tor", n.Engine, Config{})
	h := netsim.NewHost("h", 1)
	src := netsim.NewHost("src", 2)
	sp, _ := n.Connect(sw, h, netsim.Link40G())
	sw.Bind(sp)
	sw.Pipeline = PipelineFunc(func(ctx *Context) { ctx.Emit(0, ctx.Frame) })
	var order []string
	h.Handler = func(_ *netsim.Port, frame []byte) {
		if isRoCEFrame(frame) {
			order = append(order, "rdma")
		} else {
			order = append(order, "data")
		}
	}
	for i := 0; i < 5; i++ {
		sw.Receive(sp, frameBetween(src, h, 1500))
	}
	roce := wire.BuildFetchAdd(&wire.RoCEParams{
		SrcMAC: src.MAC, DstMAC: h.MAC,
		SrcIP: src.IP, DstIP: h.IP, DestQP: 1,
	}, 0, 1, 1)
	sw.Receive(sp, roce)
	n.Engine.Run()
	if order[len(order)-1] != "rdma" {
		t.Fatalf("FIFO violated without priority: %v", order)
	}
}

func TestIsRoCEFrameClassification(t *testing.T) {
	roce2 := wire.BuildReadRequest(&wire.RoCEParams{DestQP: 1}, 0, 1, 8)
	defer wire.DefaultPool.Put(roce2)
	if !isRoCEFrame(roce2) {
		t.Fatal("v2 frame not classified")
	}
	p1 := &wire.RoCEParams{DestQP: 1, Version: wire.RoCEv1}
	roce1 := wire.BuildReadRequest(p1, 0, 1, 8)
	defer wire.DefaultPool.Put(roce1)
	if !isRoCEFrame(roce1) {
		t.Fatal("v1 frame not classified")
	}
	data := wire.BuildDataFrame(wire.MACFromUint64(1), wire.MACFromUint64(2),
		wire.IP4{1, 1, 1, 1}, wire.IP4{2, 2, 2, 2}, 1, 4791, 100, nil)
	defer wire.DefaultPool.Put(data)
	if !isRoCEFrame(data) {
		t.Fatal("UDP/4791 should classify as RoCE (port-based classifier)")
	}
	other := wire.BuildDataFrame(wire.MACFromUint64(1), wire.MACFromUint64(2),
		wire.IP4{1, 1, 1, 1}, wire.IP4{2, 2, 2, 2}, 1, 80, 100, nil)
	defer wire.DefaultPool.Put(other)
	if isRoCEFrame(other) {
		t.Fatal("plain UDP classified as RoCE")
	}
}

// TestRunPipelineReentryPanics: a pass borrows the switch's one Context, so
// starting another pass from inside Ingress — which nothing legitimate does:
// Receive and Recirculate go through the engine — must fail loudly instead
// of overwriting the context under the outer pass.
func TestRunPipelineReentryPanics(t *testing.T) {
	n, sw, hosts := testbed(t, 2, Config{})
	inner := frameBetween(hosts[0], hosts[1], 64)
	var panicked any
	sw.Pipeline = PipelineFunc(func(ctx *Context) {
		defer func() { panicked = recover() }()
		sw.runPipeline(ctx.InPort, inner)
	})
	sw.Receive(sw.Port(0), frameBetween(hosts[0], hosts[1], 64))
	n.Engine.Run()
	if panicked == nil {
		t.Fatal("runPipeline re-entered during a pass without panicking")
	}
	wire.DefaultPool.Put(inner) // the refused pass never took ownership
}

// TestRetainThenNewContextWithSharedContext: the continuation pattern of
// core/lookup.go — Retain the frame, let other packets use the switch's
// shared Context meanwhile, finish later on a NewContext — still delivers
// every frame exactly once. Retain parks the frame, not the Context.
func TestRetainThenNewContextWithSharedContext(t *testing.T) {
	n, sw, hosts := testbed(t, 3, Config{})
	const parked = 4
	passCtx := map[*Context]bool{}
	sw.Pipeline = PipelineFunc(func(ctx *Context) {
		passCtx[ctx] = true
		if ctx.Pkt.Eth.Dst != hosts[2].MAC {
			ctx.Emit(1, ctx.Frame) // ordinary traffic between the parked passes
			return
		}
		frame := ctx.Frame
		ctx.Retain()
		sw.Engine.Schedule(5*sim.Microsecond, func() {
			c := sw.NewContext(RecirculationPort, frame)
			if passCtx[c] {
				t.Error("NewContext handed out the switch's shared pass Context")
			}
			c.Emit(2, frame)
			c.Finish()
		})
	})
	for i := 0; i < parked; i++ {
		sw.Receive(sw.Port(0), frameBetween(hosts[0], hosts[2], 100+i))
		sw.Receive(sw.Port(0), frameBetween(hosts[0], hosts[1], 64))
	}
	n.Engine.Run()
	if len(passCtx) != 1 {
		t.Fatalf("passes used %d distinct Contexts, want the one the switch owns", len(passCtx))
	}
	if hosts[2].Received != parked || hosts[1].Received != parked {
		t.Fatalf("delivered %d parked and %d plain frames, want %d each", hosts[2].Received, hosts[1].Received, parked)
	}
}
