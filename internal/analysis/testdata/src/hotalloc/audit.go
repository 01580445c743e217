package hotalloc

import (
	"gem/internal/sim"
	"gem/internal/wire"
)

// The mutations of the audit table (DESIGN.md §6.1) that no test catches
// and hotalloc does, reduced to their shape. The id names the table row.
// The builders ha-build-1 and ha-build-2 called (BuildPFC, BuildAck) are
// gone, so those rows are compile errors now; the surviving allocating
// builders stand in for their shape.

// ha-build-1: a frame from the allocating builder (was the PFC resume).
func pfcResume(src, dst wire.MAC) []byte {
	return wire.BuildDataFrame(src, dst, wire.IP4{}, wire.IP4{}, 0, 0, 64, nil) // want "allocating builder wire.BuildDataFrame"
}

// ha-build-2: an atomic request from the allocating builder (was the ACK).
func ack(p *wire.RoCEParams, va uint64) []byte {
	return wire.BuildFetchAdd(p, va, 0, 1) // want "allocating builder wire.BuildFetchAdd"
}

// ha-build-3: a READ request from the allocating builder.
func readRequest(p *wire.RoCEParams, va uint64, rkey, n uint32) []byte {
	return wire.BuildReadRequest(p, va, rkey, n) // want "allocating builder wire.BuildReadRequest"
}

type port struct {
	eng         *sim.Engine
	resumeEvent *sim.Event
}

func resumed(recv any, _ []byte, port int) {}

// ha-clo-1: the PFC resume timer is a closure.
func pause(p *port, d sim.Duration, i int) {
	p.resumeEvent = p.eng.Schedule(d, func() { resumed(p, nil, i) }) // want "func literal passed to sim.Engine.Schedule allocates"
}

// ha-clo-2: the pause refresh is a closure.
func refresh(p *port, d sim.Duration) {
	p.eng.Schedule(d, func() { resumed(p, nil, 0) }) // want "func literal passed to sim.Engine.Schedule allocates"
}

// ha-clo-3: the requester's retransmit timer is a closure.
func armTimer(p *port, timeout sim.Duration) *sim.Event {
	return p.eng.Schedule(timeout, func() { resumed(p, nil, 0) }) // want "func literal passed to sim.Engine.Schedule allocates"
}
