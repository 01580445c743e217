// Package hotalloc seeds known violations of the hot-path allocation rules
// for the gemlint hotalloc pass.
package hotalloc

import (
	"fmt"

	"gem/internal/sim"
	"gem/internal/wire"
)

func legacyBuilder(p *wire.RoCEParams) []byte {
	return wire.BuildFetchAdd(p, 0, 0, 1) // want "allocating builder wire.BuildFetchAdd"
}

func legacyDataFrame(src, dst wire.MAC) []byte {
	return wire.BuildDataFrame(src, dst, wire.IP4{}, wire.IP4{}, 1, 2, 64, nil) // want "allocating builder wire.BuildDataFrame"
}

func hotSprintf(n int) string {
	return fmt.Sprintf("frame-%d", n) // want "fmt.Sprintf allocates in hot path"
}

func freshAppend(src []byte) []byte {
	return append([]byte(nil), src...) // want "fresh-slice append"
}

func freshAppendLit(src []int) []int {
	return append([]int{}, src...) // want "fresh-slice append"
}

type hopper struct{ eng *sim.Engine }

func (h *hopper) fire() {}

func closureHop(h *hopper, frame []byte) {
	h.eng.Schedule(10, func() { _ = frame }) // want "func literal passed to sim.Engine.Schedule allocates"
}

func boundMethodTimer(h *hopper) {
	h.eng.ScheduleAt(10, h.fire) // want "bound method value passed to sim.Engine.ScheduleAt allocates"
}

// --- clean code the pass must stay silent on ---

func hopDone(recv any, frame []byte, _ int) {}

func payloadHop(h *hopper, frame []byte) {
	h.eng.ScheduleCall(10, hopDone, h, frame, 0) // static function, owner as recv
}

func storedFunc(h *hopper, fn func()) {
	h.eng.Schedule(10, fn) // an existing func value: nothing allocated here
}

func coldTimer(h *hopper) {
	//gem:alloc-ok one timer per pause frame, not per packet
	h.eng.Schedule(10, func() {})
}

func pooledBuilder(pool *wire.Pool, p *wire.RoCEParams) []byte {
	return wire.BuildAckInto(pool, p, 0, 0)
}

type frameID int

func (f frameID) String() string {
	return fmt.Sprintf("frame-%d", int(f)) // String methods are cold paths
}

func panicFormat(n int) {
	if n < 0 {
		panic(fmt.Sprintf("bad frame count %d", n)) // dying anyway
	}
}

func annotatedCopy(src []byte) []byte {
	return append([]byte(nil), src...) //gem:alloc-ok control-plane copy at post time
}

func growInPlace(dst, src []byte) []byte {
	return append(dst, src...) // appending to a caller buffer is fine
}
