package harness

import (
	"fmt"

	"gem"
	"gem/internal/flowgen"
	"gem/internal/switchsim"
)

// E2Config parameterizes the Figure 3a reproduction: median end-to-end
// latency of the lookup-table primitive vs a plain L2 switch, across packet
// sizes. The paper's primitive adds 1–2 µs.
type E2Config struct {
	// Sizes are the probe frame sizes (paper: 64–1024 B).
	Sizes []int
	// Rounds is the ping-pong round count per size.
	Rounds int
}

// DefaultE2Config returns the full-experiment settings.
func DefaultE2Config() E2Config {
	return E2Config{Sizes: []int{64, 128, 256, 512, 1024}, Rounds: 51}
}

// E2Point is one x-position of Figure 3a.
type E2Point struct {
	Size           int
	BaselineUs     float64
	LookupUs       float64
	ExtraLatencyUs float64
}

// e2Baseline measures the plain-L2 median one-way latency for one size.
func e2Baseline(size, rounds int) float64 {
	tb, err := gem.New(gem.Options{Seed: 2, Hosts: 2})
	if err != nil {
		panic(err)
	}
	tb.SetPipeline(func(ctx *gem.Context) {
		if ctx.Pkt == nil {
			ctx.Drop()
			return
		}
		// Exact-match L2: our two hosts sit on ports 0 and 1.
		switch ctx.Pkt.Eth.Dst {
		case tb.Hosts[0].MAC:
			ctx.Emit(0, ctx.Frame)
		case tb.Hosts[1].MAC:
			ctx.Emit(1, ctx.Frame)
		default:
			ctx.Drop()
		}
	})
	pp := &flowgen.PingPong{
		Engine: tb.Engine, A: tb.Hosts[0], B: tb.Hosts[1],
		APort: tb.HostPort(0), BPort: tb.HostPort(1), FrameLen: size,
	}
	pp.Run(rounds, nil)
	tb.Run()
	return pp.MedianOneWay().Seconds() * 1e6
}

// e2Lookup measures the same path with the lookup-table primitive fetching
// the DSCP-rewrite action from remote memory for *every* packet (the
// paper's program: no caching, every packet pays the remote round trip).
func e2Lookup(size, rounds int) float64 {
	// The demo action of §5: "modifies the value of the DSCP field of
	// IPv4 header to a specific value stored in the remote table".
	tb, lt := lookupBed(2, gem.LookupConfig{Entries: 1024, MaxPktBytes: 1536},
		func(int) gem.LookupAction { return gem.SetDSCPAction(46) })
	// Route by MAC after applying the action (both directions traverse
	// the primitive).
	lt.Apply = func(ctx *switchsim.Context, frame []byte, action gem.LookupAction) {
		if !lt.ApplyActionOnly(frame, action) {
			ctx.Drop()
			return
		}
		var out int
		dst := frame[0:6]
		if macEqual(dst, tb.Hosts[1].MAC[:]) {
			out = 1
		} else if macEqual(dst, tb.Hosts[0].MAC[:]) {
			out = 0
		} else {
			ctx.Drop()
			return
		}
		ctx.Emit(out, frame)
	}
	pp := &flowgen.PingPong{
		Engine: tb.Engine, A: tb.Hosts[0], B: tb.Hosts[1],
		APort: tb.HostPort(0), BPort: tb.HostPort(1), FrameLen: size,
	}
	pp.Run(rounds, nil)
	tb.Run()
	if tb.ServerCPUOps() != 0 {
		panic("E2: table server CPU touched")
	}
	return pp.MedianOneWay().Seconds() * 1e6
}

func macEqual(a, b []byte) bool {
	for i := 0; i < 6; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RunE2 executes the Figure 3a reproduction.
func RunE2(cfg E2Config) (*Table, []E2Point) {
	var points []E2Point
	t := &Table{
		ID:      "E2",
		Title:   "Figure 3a: median end-to-end latency, lookup primitive vs baseline L2",
		Columns: []string{"packet size (B)", "baseline (µs)", "lookup primitive (µs)", "extra (µs)"},
	}
	for _, size := range cfg.Sizes {
		base := e2Baseline(size, cfg.Rounds)
		look := e2Lookup(size, cfg.Rounds)
		p := E2Point{Size: size, BaselineUs: base, LookupUs: look, ExtraLatencyUs: look - base}
		points = append(points, p)
		t.AddRow(fmt.Sprintf("%d", size), f2(base), f2(look), f2(p.ExtraLatencyUs))
	}
	t.AddNote("paper: the primitive 'only adds 1-2 µs latency on average'")
	return t, points
}
