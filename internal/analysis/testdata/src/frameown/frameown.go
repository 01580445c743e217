// Package frameown seeds known violations of the pooled frame-ownership
// contract for the gemlint frameown pass. Every flagged line carries a
// `// want "regexp"` expectation checked by analysistest.
package frameown

import "gem/internal/wire"

var pool = wire.NewPool()

// sink is a stand-in for a fabric entry point: the callee owns frame.
//
//gem:owns
func sink(frame []byte) {
	pool.Put(frame)
}

// borrow reads the frame without taking ownership.
func borrow(frame []byte) int { return len(frame) }

func doubleRelease() {
	buf := pool.Get(64)
	pool.Put(buf)
	pool.Put(buf) // want "released or transferred twice"
}

func useAfterRelease() int {
	buf := pool.Get(64)
	pool.Put(buf)
	return len(buf) // want "use of frame \"buf\" after release"
}

func releaseAfterTransfer() {
	buf := pool.Get(64)
	sink(buf)
	pool.Put(buf) // want "released or transferred twice"
}

func leakOnErrorPath(fail bool) {
	buf := pool.Get(64)
	if fail {
		return // want "owned frame \"buf\" leaks"
	}
	pool.Put(buf)
}

// loopDoubleSend is the L2-flood bug class: the same buffer is handed to an
// owning callee once per iteration.
func loopDoubleSend(ports int) {
	frame := pool.Get(64)
	for i := 0; i < ports; i++ {
		sink(frame) // want "released or transferred twice"
	}
} // want "owned frame \"frame\" leaks"

// builderLeak acquires from a builder instead of Pool.Get.
func builderLeak(p *wire.RoCEParams, bad bool) {
	frame := wire.BuildAckInto(pool, p, 0, 0)
	if bad {
		return // want "owned frame \"frame\" leaks"
	}
	sink(frame)
}

// --- clean code the pass must stay silent on ---

func cleanGetPut() {
	buf := pool.Get(64)
	borrow(buf)
	pool.Put(buf)
}

func cleanDefer() {
	buf := pool.Get(64)
	defer pool.Put(buf)
	borrow(buf)
}

func cleanTransfer() {
	buf := pool.Get(64)
	sink(buf)
}

func cleanBranches(fail bool) {
	buf := pool.Get(64)
	if fail {
		pool.Put(buf)
		return
	}
	sink(buf)
}

// cleanLoopCopies is the fixed flood pattern: a fresh pooled copy per
// iteration, the original transferred exactly once at the end.
func cleanLoopCopies(ports int) {
	frame := pool.Get(64)
	for i := 0; i < ports-1; i++ {
		cp := pool.Get(len(frame))
		copy(cp, frame)
		sink(cp)
	}
	sink(frame)
}

// cleanReturn transfers ownership to the caller.
func cleanReturn() []byte {
	buf := pool.Get(64)
	return buf
}

// cleanEscape hands the frame to an unknown owner (func value): the pass
// abstains rather than guessing.
func cleanEscape(deliver func([]byte)) {
	buf := pool.Get(64)
	deliver(buf)
}

// --- priority load-shedding paths (overload robustness) ---

// shedLeak models a shed path that refuses a low-priority frame but
// forgets to recycle it: every shed would leak one pooled buffer.
func shedLeak(lowPrio bool) {
	buf := pool.Get(64)
	if lowPrio {
		return // want "owned frame \"buf\" leaks"
	}
	sink(buf)
}

// shedDoubleRelease recycles the shed frame and then still hands it to the
// fabric: the frame is released twice on the shed path.
func shedDoubleRelease(lowPrio bool) {
	buf := pool.Get(64)
	if lowPrio {
		pool.Put(buf)
		sink(buf) // want "released or transferred twice"
		return
	}
	sink(buf)
}

// cleanShed is the contract: a shed frame is released exactly once and
// never touched again; an admitted frame transfers exactly once.
func cleanShed(lowPrio bool) {
	buf := pool.Get(64)
	if lowPrio {
		pool.Put(buf)
		return
	}
	sink(buf)
}

// --- transport work-queue paths (verbs refactor) ---

// wqeExhaustedLeak is the exhausted-retries bug class the transport layer
// must avoid: a reliable-mode work-queue entry retains its request frame
// for resends, the completion path releases it — but when the retry budget
// runs out, the give-up path drops the WQE and forgets the frame it holds.
// Every exhausted op then leaks one pooled buffer.
func wqeExhaustedLeak(acked bool, budget int) {
	frame := pool.Get(64)
	for i := 0; i < budget; i++ {
		borrow(frame) // resend: the WQE keeps ownership
		if acked {
			pool.Put(frame) // completion releases exactly once
			return
		}
	}
	// Retries exhausted: the WQE is discarded here with its frame.
	return // want "owned frame \"frame\" leaks"
}

// cleanWQEExhausted is the fixed shape: the give-up path recycles the
// retained frame before discarding the WQE.
func cleanWQEExhausted(acked bool, budget int) {
	frame := pool.Get(64)
	for i := 0; i < budget; i++ {
		borrow(frame)
		if acked {
			pool.Put(frame)
			return
		}
	}
	pool.Put(frame)
}

// --- batched-posting paths ---

// batchFlushFailLeak is the batched sibling of wqeExhaustedLeak: a batched
// flush walks its pending entries building one frame per ripe WQE,
// but when the post fails mid-batch (credits gone, endpoint down) the
// cut-short path abandons the batch and forgets the frame already built
// for the entry it was posting. Every failed flush then leaks one pooled
// buffer.
func batchFlushFailLeak(ripe int, canPost func() bool) {
	for i := 0; i < ripe; i++ {
		frame := pool.Get(64)
		if !canPost() {
			// Flush cut short: the entry stays pending for the
			// retry, but the frame built for it is dropped here.
			return // want "owned frame \"frame\" leaks"
		}
		sink(frame)
	}
}

// cleanBatchFlushFail is the fixed shape: a cut-short flush recycles the
// frame it already built before leaving the rest of the batch for the
// retry.
func cleanBatchFlushFail(ripe int, canPost func() bool) {
	for i := 0; i < ripe; i++ {
		frame := pool.Get(64)
		if !canPost() {
			pool.Put(frame)
			return
		}
		sink(frame)
	}
}
