package main

import (
	"runtime"
	"time"

	"gem"
	"gem/internal/core/verbs"
	"gem/internal/netsim"
	"gem/internal/rnic"
	"gem/internal/sim"
	"gem/internal/switchsim"
	"gem/internal/wire"
)

// Layer drivers: each exercises one layer alone, on the frame kind and sizes
// of the workload at hand, and reports host cost per operation. They exist so
// that the traced run's un-hookable remainder (sim.other_s) can be compared
// with what the layers cost in isolation.

// frameKind is the wire frame a workload's layer drivers build and decode.
type frameKind int

const (
	frameUDP64      frameKind = iota // 64 B UDP data frame
	frameWrite1500                   // WRITE-only carrying a 1500 B frame
	frameFetchAdd                    // Fetch-and-Add request
	frameReadResp1K                  // READ response carrying a 1 KiB entry
)

// rdmaShape is the remote operations a workload issues, by payload size
// (0 = the workload does not issue that operation).
type rdmaShape struct {
	writeLen, readLen int
	atomic            bool
}

// cost is a driver's host cost per operation, with the engine events and wire
// frames one operation causes.
type cost struct{ ns, allocs, events, frames float64 }

const driverOps = 100_000

// measure times n calls of op after n/10 warm-up calls. eng and ports, when
// given, are where the operation's own events and frames are counted.
func measure(n int, eng *sim.Engine, ports []*netsim.Port, op func()) cost {
	for i := 0; i < n/10; i++ {
		op()
	}
	txFrames := func() (f int64) {
		for _, p := range ports {
			f += p.TxMeter.Frames
		}
		return f
	}
	var ev0 uint64
	if eng != nil {
		ev0 = eng.Executed
	}
	f0 := txFrames()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op()
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	c := cost{
		ns:     float64(d.Nanoseconds()) / float64(n),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n),
		frames: float64(txFrames()-f0) / float64(n),
	}
	if eng != nil {
		c.events = float64(eng.Executed-ev0) / float64(n)
	}
	return c
}

// driveLap: what one root span costs the traced run — the tracer's own price
// per engine event, to be taken out of sim.other_s before it is compared with
// the model.
func driveLap() cost {
	tr := newTracer()
	tr.events = fullSpanEvents // past the whole-span window, as most of a run is
	tr.begin(spanEvent)
	c := measure(4*driverOps, nil, nil, tr.lap)
	tr.end()
	return c
}

// driveSchedFire: Schedule+Step of a no-op with depth other events pending.
func driveSchedFire(depth int) cost {
	eng := sim.NewEngine(1)
	noop := func() {}
	for i := 0; i < depth; i++ {
		eng.ScheduleAt(sim.Time(1)<<60, noop)
	}
	return measure(4*driverOps, eng, nil, func() {
		eng.Schedule(1, noop)
		eng.Step()
	})
}

var (
	drvMACa, drvMACb = wire.MACFromUint64(0x02_00_00_000001), wire.MACFromUint64(0x02_00_00_0000c8)
	drvIPa, drvIPb   = wire.IP4FromUint32(0x0a000001), wire.IP4FromUint32(0x0a0000c8)
)

// frameBuilder returns a function building one pooled frame of kind k.
func frameBuilder(k frameKind) func() []byte {
	p := wire.RoCEParams{SrcMAC: drvMACa, DstMAC: drvMACb, SrcIP: drvIPa, DstIP: drvIPb, UDPSrcPort: 0xC011, DestQP: 0x11}
	switch k {
	case frameWrite1500:
		payload := make([]byte, 1504)
		return func() []byte {
			p.PSN++
			return wire.BuildWriteOnlyInto(wire.DefaultPool, &p, 0x10000000, 0x1000, payload)
		}
	case frameFetchAdd:
		return func() []byte {
			p.PSN++
			return wire.BuildFetchAddInto(wire.DefaultPool, &p, 0x10000000, 0x1000, 1)
		}
	case frameReadResp1K:
		payload := make([]byte, 1024)
		return func() []byte {
			p.PSN++
			return wire.BuildReadResponseInto(wire.DefaultPool, &p, wire.OpReadResponseOnly, 1, payload)
		}
	default:
		var stamp [stampLen]byte
		return func() []byte {
			return wire.BuildDataFrameInto(wire.DefaultPool, drvMACa, drvMACb, drvIPa, drvIPb, 1000, 9999, 64, stamp[:])
		}
	}
}

// driveWire: build and decode of the workload's frame kind.
func driveWire(k frameKind) (build, decode cost) {
	mk := frameBuilder(k)
	build = measure(driverOps, nil, nil, func() { wire.DefaultPool.Put(mk()) })
	f := mk()
	var pkt wire.Packet
	decode = measure(driverOps, nil, nil, func() {
		if err := pkt.DecodeFromBytes(f); err != nil {
			panic(err) // a frame this package just built must parse
		}
	})
	wire.DefaultPool.Put(f)
	return build, decode
}

// driveHop: one frame Port.Send → peer Receive over the standard 40 G link.
func driveHop(frameLen int) cost {
	n := netsim.New(1)
	a, b := netsim.NewHost("a", 1), netsim.NewHost("b", 2)
	pa, _ := n.Connect(a, b, netsim.Link40G())
	return measure(driverOps, n.Engine, []*netsim.Port{pa}, func() {
		pa.Send(wire.DefaultPool.Get(frameLen))
		n.Engine.Run()
	})
}

// driveForward: host → switch → host through a MAC-match pipeline. The
// caller subtracts the two hops.
func driveForward(frameLen int) (cost, error) {
	tb, err := gem.New(gem.Options{Seed: 1, Hosts: 2})
	if err != nil {
		return cost{}, err
	}
	l2, err := switchsim.NewL2Pipeline(tb.Switch, 2)
	if err != nil {
		return cost{}, err
	}
	for i, h := range tb.Hosts {
		if err := l2.Learn(h.MAC, i); err != nil {
			return cost{}, err
		}
	}
	tb.SetPipeline(l2.Ingress)
	tmpl := tb.DataFrame(0, 1, frameLen, 1000, 9999)
	defer wire.DefaultPool.Put(tmpl)
	ports := []*netsim.Port{tb.HostPort(0), tb.Switch.Port(1)}
	return measure(driverOps, tb.Engine, ports, func() {
		f := wire.DefaultPool.Get(len(tmpl))
		copy(f, tmpl)
		tb.SendFrame(0, f)
		tb.Run()
	}), nil
}

// driveServe: request frames of the workload's payload sizes straight into
// NIC.Receive on a two-device net (NIC + a sink standing in for the switch),
// each run until its response has been delivered.
func driveServe(shape rdmaShape) (write, read, atomic cost) {
	n := netsim.New(1)
	sink, mh := netsim.NewHost("sw", 1), netsim.NewHost("mem", 200)
	nic := rnic.New("rnic", mh, rnic.Config{MTU: 4096})
	_, np := n.Connect(sink, nic, netsim.Link40G())
	nic.Bind(n.Engine, np)
	const base = 0x10000000
	region := nic.RegisterMemory(base, 1<<16)
	qp := nic.CreateQP(rnic.PSNTolerant)
	qp.PeerMAC, qp.PeerIP, qp.PeerQPN = sink.MAC, sink.IP, 0x100
	p := wire.RoCEParams{SrcMAC: sink.MAC, DstMAC: nic.MAC, SrcIP: sink.IP, DstIP: nic.IP, UDPSrcPort: 0xC100, DestQP: qp.Number}
	ports := []*netsim.Port{np}
	serve := func(build func() []byte) cost {
		return measure(driverOps, n.Engine, ports, func() {
			p.PSN = (p.PSN + 1) & verbs.PSNMask
			nic.Receive(np, build())
			n.Engine.Run()
		})
	}
	if shape.writeLen > 0 {
		payload := make([]byte, shape.writeLen)
		write = serve(func() []byte { return wire.BuildWriteOnlyInto(wire.DefaultPool, &p, base, region.RKey, payload) })
	}
	if shape.readLen > 0 {
		read = serve(func() []byte {
			return wire.BuildReadRequestInto(wire.DefaultPool, &p, base, region.RKey, uint32(shape.readLen))
		})
	}
	if shape.atomic {
		atomic = serve(func() []byte { return wire.BuildFetchAddInto(wire.DefaultPool, &p, base, region.RKey, 1) })
	}
	return write, read, atomic
}

// nullEndpoint is a wire that accepts everything and sends nothing, so the
// verbs driver measures the work queue alone.
type nullEndpoint struct{ psn uint32 }

func (e *nullEndpoint) PSN() uint32 { return e.psn }
func (e *nullEndpoint) Read(_, _ int, respPkts uint32) bool {
	e.psn = (e.psn + respPkts) & verbs.PSNMask
	return true
}
func (e *nullEndpoint) Write(int, []byte) bool {
	e.psn = (e.psn + 1) & verbs.PSNMask
	return true
}
func (e *nullEndpoint) FetchAdd(int, uint64) (uint32, bool) {
	p := e.psn
	e.psn = (e.psn + 1) & verbs.PSNMask
	return p, true
}
func (e *nullEndpoint) Now() sim.Time                 { return 0 }
func (e *nullEndpoint) Schedule(sim.Duration, func()) {}

// drivePostComplete: one post → completion round on a QP, in the shape the
// workload uses: cumulative Fetch-and-Add, or exact-PSN READ.
func drivePostComplete(shape rdmaShape) cost {
	ep := &nullEndpoint{}
	credits := verbs.NewCredits(verbs.CreditConfig{Window: 16})
	if shape.atomic {
		qp := verbs.NewQP(ep, credits, verbs.QPConfig{Cumulative: true})
		return measure(driverOps, nil, nil, func() {
			psn := ep.psn
			qp.PostFetchAdd(0, 1)
			qp.AckCumulative(psn)
		})
	}
	qp := verbs.NewQP(ep, credits, verbs.QPConfig{TokenIndex: true})
	return measure(driverOps, nil, nil, func() {
		psn := ep.psn
		qp.PostRead(1, 0, shape.readLen, 1, verbs.CreditTry)
		qp.CompleteExact(psn)
	})
}
