package postcheck

import "gem/internal/core/verbs"

// The mutations of the audit table (DESIGN.md §6.1) that no test catches
// and postcheck does, reduced to their shape. The id names the table row.

// pc-1: the packet buffer advances its read cursor past a refused READ.
func loadNext(s *verbs.StripedQP, g uint64, next *uint64) {
	s.PostRead(g, 64, 1, verbs.CreditTry) // want "result of StripedQP.PostRead dropped"
	*next = g + 1
}

// pc-2: a rebind counts a refused repost as a retry.
func repostAll(s *verbs.StripedQP, toks []uint64, retries *int) {
	for _, g := range toks {
		s.Repost(g) // want "result of StripedQP.Repost dropped"
		*retries++
	}
}

// pc-4: the mirror journals and shadows an FAA its primary refused.
func mirroredFAA(primary, replica *verbs.QP, off int, delta uint64) bool {
	primary.PostFetchAdd(off, delta) // want "result of QP.PostFetchAdd dropped"
	return replica.PostFetchAdd(off, delta)
}

// pc-5: the packet buffer advances its tail past a refused WRITE.
func store(s *verbs.StripedQP, tail uint64, entry []byte) bool {
	_ = s.PostWrite(tail, 0, entry) // want "result of StripedQP.PostWrite assigned to the blank identifier"
	return true
}
