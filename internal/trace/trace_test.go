package trace

import (
	"strings"
	"testing"

	"gem/internal/netsim"
	"gem/internal/sim"
	"gem/internal/switchsim"
	"gem/internal/wire"
)

func TestSummarizeRoCEv2Write(t *testing.T) {
	p := &wire.RoCEParams{
		SrcIP: wire.IP4{10, 0, 0, 1}, DstIP: wire.IP4{10, 0, 0, 2},
		DestQP: 0x11, PSN: 42,
	}
	line := Summarize(wire.BuildWriteOnlyInto(wire.DefaultPool, p, 0x1000, 0x77, make([]byte, 99)))
	for _, want := range []string{"RoCEv2", "RDMA_WRITE_ONLY", "qp=0x11", "psn=42",
		"va=0x1000", "rkey=0x77", "payload=99B"} {
		if !strings.Contains(line, want) {
			t.Fatalf("line %q missing %q", line, want)
		}
	}
}

func TestSummarizeRoCEv1Atomic(t *testing.T) {
	p := &wire.RoCEParams{
		SrcIP: wire.IP4{10, 0, 0, 1}, DstIP: wire.IP4{10, 0, 0, 2},
		DestQP: 5, Version: wire.RoCEv1,
	}
	line := Summarize(wire.BuildFetchAdd(p, 0x80, 0x9, 3))
	for _, want := range []string{"RoCEv1", "FETCH_ADD", "10.0.0.1", "10.0.0.2", "add=3"} {
		if !strings.Contains(line, want) {
			t.Fatalf("line %q missing %q", line, want)
		}
	}
}

func TestSummarizeNakAndAtomicAck(t *testing.T) {
	p := &wire.RoCEParams{DestQP: 1}
	if line := Summarize(wire.BuildAckInto(wire.DefaultPool, p, wire.AETHNakPSNSeq, 7)); !strings.Contains(line, "NAK") {
		t.Fatalf("NAK line = %q", line)
	}
	if line := Summarize(wire.BuildAtomicAckInto(wire.DefaultPool, p, 2, 55)); !strings.Contains(line, "orig=55") {
		t.Fatalf("atomic ack line = %q", line)
	}
}

func TestSummarizeCorruptICRC(t *testing.T) {
	p := &wire.RoCEParams{DestQP: 1}
	frame := wire.BuildWriteOnlyInto(wire.DefaultPool, p, 0, 1, []byte{1, 2, 3, 4})
	frame[len(frame)-8] ^= 0xFF
	if line := Summarize(frame); !strings.Contains(line, "BAD-ICRC") {
		t.Fatalf("line %q missing BAD-ICRC", line)
	}
}

func TestSummarizePFCAndPlain(t *testing.T) {
	if line := Summarize(wire.BuildPFCInto(wire.DefaultPool, wire.MACFromUint64(3), 100)); !strings.Contains(line, "PFC pause") {
		t.Fatalf("pfc line = %q", line)
	}
	if line := Summarize(wire.BuildPFCInto(wire.DefaultPool, wire.MACFromUint64(3), 0)); !strings.Contains(line, "PFC resume") {
		t.Fatalf("resume line = %q", line)
	}
	udp := wire.BuildDataFrame(wire.MACFromUint64(1), wire.MACFromUint64(2),
		wire.IP4{1, 1, 1, 1}, wire.IP4{2, 2, 2, 2}, 10, 20, 100, nil)
	if line := Summarize(udp); !strings.HasPrefix(line, "UDP ") {
		t.Fatalf("udp line = %q", line)
	}
	if line := Summarize([]byte{1, 2}); !strings.Contains(line, "malformed") {
		t.Fatalf("runt line = %q", line)
	}
}

func TestRecorder(t *testing.T) {
	n := netsim.New(1)
	sw := switchsim.New("tor", n.Engine, switchsim.Config{})
	a := netsim.NewHost("a", 1)
	b := netsim.NewHost("b", 2)
	pa, _ := n.Connect(sw, a, netsim.Link40G())
	pb, _ := n.Connect(sw, b, netsim.Link40G())
	sw.Bind(pa, pb)
	sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		ctx.Emit(1-ctx.InPort, ctx.Frame)
	})
	rec := Attach(sw, 8)
	for i := 0; i < 5; i++ {
		n.Ports(a)[0].Send(wire.BuildDataFrame(a.MAC, b.MAC, a.IP, b.IP, 1, 2, 100, nil))
	}
	n.Engine.Run()
	if len(rec.Events) != 8 {
		t.Fatalf("events = %d, want 8 (limited)", len(rec.Events))
	}
	if rec.Dropped == 0 {
		t.Fatal("dropped not counted")
	}
	// Both directions observed (rx on port 0, then txs on port 1 once the
	// pipeline latency elapses).
	if rec.Events[0].Dir != "rx" || rec.Events[0].Port != 0 {
		t.Fatalf("first event = %+v", rec.Events[0])
	}
	sawTx := false
	for _, e := range rec.Events {
		if e.Dir == "tx" && e.Port == 1 {
			sawTx = true
		}
	}
	if !sawTx {
		t.Fatalf("no tx event recorded: %+v", rec.Events)
	}
	udp := 0
	for _, e := range rec.Events {
		if strings.Contains(e.Line, "UDP") {
			udp++
		}
	}
	if udp != 8 {
		t.Fatalf("%d events decode as UDP", udp)
	}
	var sb strings.Builder
	rec.Dump(&sb)
	if !strings.Contains(sb.String(), "further frames not recorded") {
		t.Fatal("dump missing truncation note")
	}
	_ = sim.Time(0)
}
