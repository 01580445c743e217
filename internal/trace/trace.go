// Package trace renders frames as tcpdump-style one-liners and taps a
// switch to record annotated packet traces. It exists to make the paper's
// feasibility claim *visible*: an RDMA request crafted by a switch data
// plane is just an Ethernet frame, and here is every byte of it decoded.
package trace

import (
	"fmt"
	"io"
	"strings"

	"gem/internal/sim"
	"gem/internal/switchsim"
	"gem/internal/wire"
)

// Summarize renders one frame as a single line, dispatching on what the
// frame actually is: PFC, RoCE (v1 or v2), UDP, other IPv4, or raw
// Ethernet.
func Summarize(frame []byte) string {
	if pfc, ok := wire.DecodePFC(frame); ok {
		if pfc.PauseQuanta[0] == 0 {
			return fmt.Sprintf("PFC resume from %s", pfc.Src)
		}
		return fmt.Sprintf("PFC pause from %s quanta=%d", pfc.Src, pfc.PauseQuanta[0])
	}
	var p wire.Packet
	if err := p.DecodeFromBytes(frame); err != nil {
		return fmt.Sprintf("malformed frame (%d bytes): %v", len(frame), err)
	}
	switch {
	case p.IsRoCE:
		return summarizeRoCE(&p, len(frame))
	case p.HasUDP:
		return fmt.Sprintf("UDP %s:%d > %s:%d len=%d",
			p.IP.Src, p.UDP.SrcPort, p.IP.Dst, p.UDP.DstPort, len(frame))
	case p.HasIPv4:
		return fmt.Sprintf("IPv4 %s > %s proto=%d len=%d",
			p.IP.Src, p.IP.Dst, p.IP.Protocol, len(frame))
	default:
		return fmt.Sprintf("ETH %s > %s type=%#04x len=%d",
			p.Eth.Src, p.Eth.Dst, p.Eth.EtherType, len(frame))
	}
}

func summarizeRoCE(p *wire.Packet, frameLen int) string {
	var b strings.Builder
	enc := "RoCEv2"
	src, dst := p.IP.Src.String(), p.IP.Dst.String()
	if p.HasGRH {
		enc = "RoCEv1"
		if ip, ok := wire.GIDToIP4(p.GRH.SGID); ok {
			src = ip.String()
		}
		if ip, ok := wire.GIDToIP4(p.GRH.DGID); ok {
			dst = ip.String()
		}
	}
	fmt.Fprintf(&b, "%s %s > %s %s qp=%#x psn=%d",
		enc, src, dst, p.BTH.Opcode, p.BTH.DestQP, p.BTH.PSN)
	if p.HasRETH {
		fmt.Fprintf(&b, " va=%#x rkey=%#x dmalen=%d", p.RETH.VA, p.RETH.RKey, p.RETH.DMALen)
	}
	if p.HasAtomicETH {
		fmt.Fprintf(&b, " va=%#x rkey=%#x add=%d", p.AtomicETH.VA, p.AtomicETH.RKey, p.AtomicETH.SwapAdd)
	}
	if p.HasAETH {
		kind := "ack"
		if p.AETH.IsNak() {
			kind = "NAK"
		}
		fmt.Fprintf(&b, " %s msn=%d", kind, p.AETH.MSN)
	}
	if p.HasAtomicAck {
		fmt.Fprintf(&b, " orig=%d", p.AtomicAck.OrigData)
	}
	if len(p.Payload) > 0 {
		fmt.Fprintf(&b, " payload=%dB", len(p.Payload))
	}
	if p.BTH.AckReq {
		b.WriteString(" [A]")
	}
	if !p.ICRCOK {
		b.WriteString(" BAD-ICRC")
	}
	fmt.Fprintf(&b, " len=%d", frameLen)
	return b.String()
}

// Event is one recorded frame observation.
type Event struct {
	At    sim.Time
	Dir   string // "rx" or "tx"
	Port  int
	Line  string
	Bytes int
}

func (e Event) String() string {
	return fmt.Sprintf("%12v  %s port %d  %s", e.At, e.Dir, e.Port, e.Line)
}

// Recorder taps a switch and keeps the first Limit frame events.
type Recorder struct {
	Events []Event
	Limit  int

	engine *sim.Engine
	// Dropped counts events past the limit.
	Dropped int64
}

// Attach installs the recorder on sw. limit <= 0 means unbounded.
func Attach(sw *switchsim.Switch, limit int) *Recorder {
	r := &Recorder{Limit: limit, engine: sw.Engine}
	sw.TraceFn = func(event string, port int, frame []byte) {
		if r.Limit > 0 && len(r.Events) >= r.Limit {
			r.Dropped++
			return
		}
		r.Events = append(r.Events, Event{
			At: r.engine.Now(), Dir: event, Port: port,
			Line: Summarize(frame), Bytes: len(frame),
		})
	}
	return r
}

// Dump writes all recorded events to w.
func (r *Recorder) Dump(w io.Writer) {
	for _, e := range r.Events {
		fmt.Fprintln(w, e)
	}
	if r.Dropped > 0 {
		fmt.Fprintf(w, "... %d further frames not recorded (limit %d)\n", r.Dropped, r.Limit)
	}
}
