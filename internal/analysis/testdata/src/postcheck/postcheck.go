// Package postcheck seeds dropped-result violations of the verbs posting
// API for the gemlint postcheck pass. Every flagged line carries a
// `// want "regexp"` expectation checked by analysistest.
package postcheck

import (
	"gem/internal/core/verbs"
	"gem/internal/wire"
)

func dropped(q *verbs.QP) {
	q.PostWrite(0, nil) // want "result of QP.PostWrite dropped"
}

func droppedRead(q *verbs.QP) {
	q.PostRead(1, 0, 64, 1, verbs.CreditTry) // want "result of QP.PostRead dropped"
}

func blank(q *verbs.QP, tok uint64) {
	_ = q.Repost(tok) // want "result of QP.Repost assigned to the blank identifier"
}

func blankMulti(q *verbs.QP, tok uint64) (int, bool) {
	n, _ := 1, q.PostFetchAdd(0, 1) // want "result of QP.PostFetchAdd assigned to the blank identifier"
	return n, false
}

func goDiscard(c *verbs.Credits) {
	go c.TryAcquire() // want "result of Credits.TryAcquire discarded by go statement"
}

func deferDiscard(q *verbs.QP) {
	defer q.TryReserve(verbs.OpRead) // want "result of QP.TryReserve discarded by defer"
}

// --- mirrored posting ---

func mirroredDropped(m *verbs.MirroredQP) {
	m.PostFetchAdd(0, 1) // want "result of MirroredQP.PostFetchAdd dropped"
}

func mirroredGoDiscard(m *verbs.MirroredQP) {
	go m.PostFetchAdd(8, 1) // want "result of MirroredQP.PostFetchAdd discarded by go statement"
}

// mirroredHandled branches on the result: fine.
func mirroredHandled(m *verbs.MirroredQP) bool {
	if !m.PostFetchAdd(0, 1) {
		return false
	}
	return true
}

// --- typed CQE status consumers ---

func statusDropped(q *verbs.QP, pkt *wire.Packet) {
	q.ReadResponse(pkt) // want "typed CQE status of QP.ReadResponse discarded"
}

func statusDroppedExact(q *verbs.QP, psn uint32) {
	q.CompleteExact(psn) // want "typed CQE status of QP.CompleteExact discarded"
}

func statusBlankTuple(q *verbs.QP, pkt *wire.Packet) ([]byte, verbs.CQE) {
	cqe, data, _ := q.ReadResponse(pkt) // want "typed CQE status of QP.ReadResponse assigned to the blank identifier"
	return data, cqe
}

func statusBlankExact(q *verbs.QP, psn uint32) verbs.CQE {
	cqe, _ := q.CompleteExact(psn) // want "typed CQE status of QP.CompleteExact assigned to the blank identifier"
	return cqe
}

func statusGoDiscard(q *verbs.QP, psn uint32) {
	go q.CompleteExact(psn) // want "typed CQE status of QP.CompleteExact discarded by go statement"
}

func statusDeferDiscard(q *verbs.QP, pkt *wire.Packet) {
	defer q.ReadResponse(pkt) // want "typed CQE status of QP.ReadResponse discarded by defer"
}

// statusConsumed binds the status to a real variable: fine.
func statusConsumed(q *verbs.QP, pkt *wire.Packet) verbs.CQStatus {
	_, _, status := q.ReadResponse(pkt)
	return status
}

// statusHandled blanks the payload but branches on the status: fine.
func statusHandled(q *verbs.QP, psn uint32) bool {
	_, ok := q.CompleteExact(psn)
	return ok
}

// statusAnnotated is a deliberate duplicate-drain site, waived.
func statusAnnotated(q *verbs.QP, pkt *wire.Packet) {
	q.ReadResponse(pkt) //gem:post-ok duplicate drain; status already counted upstream
}

// consumed returns the result: fine.
func consumed(q *verbs.QP) bool {
	return q.PostFetchAdd(0, 1)
}

// handled branches on the result: fine.
func handled(q *verbs.QP, off int, payload []byte) bool {
	if !q.PostWrite(off, payload) {
		return false
	}
	return true
}

// bound assigns the result to a real variable: fine (unused-variable
// detection is the compiler's job).
func bound(c *verbs.Credits) bool {
	ok := c.TryAcquire()
	return ok
}

// annotated is an intentional fire-and-forget site, waived.
func annotated(q *verbs.QP) {
	q.PostWrite(0, nil) //gem:post-ok best-effort hint write; loss is benign
}

// annotatedAbove carries the waiver on the line above the call.
func annotatedAbove(s *verbs.StripedQP, key uint64) {
	//gem:post-ok opportunistic counter nudge
	s.Home(key).PostFetchAdd(s.Offset(key), 7)
}

// unrelated calls that happen to share a name are not flagged.
type fake struct{}

func (fake) PostWrite(int, []byte) bool { return true }

func unrelated(f fake) {
	f.PostWrite(0, nil)
}
