package main

import (
	"encoding/binary"
	"slices"

	"gem"
	"gem/internal/sim"
	"gem/internal/wire"
)

// tap stamps simulated time on frames at the switch boundary (Switch.TraceFn,
// traced episodes only): how long a data frame stays in the switch between
// "rx" and "tx" — including any detour through remote memory — and how long a
// READ or atomic request takes from "tx" on a memory port to the "rx" of its
// response, matched by port and PSN.
type tap struct {
	eng      *sim.Engine
	tr       *tracer
	memPort0 int

	rxAt  map[uint64]sim.Time // frame stamp (flow, seq) → arrival
	resid []int32
	reqAt map[uint32]sim.Time // port<<24 | PSN → request departure
	rtt   []int32
}

func installTap(tb *gem.Testbed, tr *tracer) *tap {
	t := &tap{
		eng: tb.Engine, tr: tr, memPort0: len(tb.Hosts),
		rxAt: make(map[uint64]sim.Time), reqAt: make(map[uint32]sim.Time),
	}
	tb.Switch.TraceFn = t.observe
	return t
}

const bthOff = wire.EthernetLen + wire.IPv4Len + wire.UDPLen

// roceHeader reads opcode and PSN at their fixed RoCEv2 offsets.
func roceHeader(frame []byte) (op wire.Opcode, psn uint32, ok bool) {
	if len(frame) < bthOff+wire.BTHLen || frame[12] != 0x08 || frame[13] != 0x00 ||
		frame[wire.EthernetLen+9] != wire.ProtoUDP ||
		binary.BigEndian.Uint16(frame[wire.EthernetLen+wire.IPv4Len+2:]) != wire.UDPPortRoCEv2 {
		return 0, 0, false
	}
	bth := frame[bthOff:]
	return wire.Opcode(bth[0]), binary.BigEndian.Uint32(bth[8:12]) & 0xFFFFFF, true
}

func (t *tap) observe(event string, port int, frame []byte) {
	t.tr.begin(spanTap)
	defer t.tr.end()
	now := t.eng.Now()
	op, psn, roce := roceHeader(frame)
	switch {
	case !roce:
		if len(frame) < stampOff+stampLen {
			return
		}
		id := binary.BigEndian.Uint64(frame[stampOff+8:])
		if event == "rx" {
			t.rxAt[id] = now
		} else if at, ok := t.rxAt[id]; ok {
			t.resid = append(t.resid, int32(now.Sub(at)))
			delete(t.rxAt, id)
		}
	case port < t.memPort0:
		// RoCE on a host port: not remote-memory traffic.
	case event == "tx":
		if op == wire.OpReadRequest || op == wire.OpFetchAdd {
			t.reqAt[uint32(port)<<24|psn] = now
		}
	default:
		key := uint32(port)<<24 | psn
		if at, ok := t.reqAt[key]; ok {
			t.rtt = append(t.rtt, int32(now.Sub(at)))
			delete(t.reqAt, key)
		}
	}
}

// quantiles sorts the samples and returns their median and p99 in ns.
func quantiles(samples []int32) (p50, p99 float64) {
	slices.Sort(samples)
	return percentileNs(samples, 50), percentileNs(samples, 99)
}
