package psnsafe

// The mutations of the audit table (DESIGN.md §6.1) that no test catches
// and psnsafe does, reduced to their shape. The id names the table row.

type journalEntry struct{ ppsn uint32 }

// ps-ord-3: the mirror's primary ack orders the journaled PSN raw.
func primaryAcked(e *journalEntry, psn uint32) bool {
	return e.ppsn <= psn // want "raw <= ordering on PSN"
}

type relFrame struct{ psn uint32 }

// ps-ord-4: the NAK desync check orders the oldest unacked PSN raw.
func nakDesync(unacked []relFrame, e uint32) bool {
	return len(unacked) > 0 && unacked[0].psn > e // want "raw > ordering on PSN"
}

type bth struct{ PSN uint32 }

type workRequest struct{ firstPSN uint32 }

// ps-mask-3: a READ response's offset into its request is unmasked.
func responseOffset(h *bth, wr *workRequest) uint32 {
	return h.PSN - wr.firstPSN // want "unmasked - on PSN"
}

type requester struct{ sPSN uint32 }

// ps-inc-1: the atomic send PSN is incremented in place.
func postAtomic(r *requester) {
	r.sPSN++ // want "incremented without masking"
}

// ps-inc-2: the READ send PSN advances with +=.
func postRead(r *requester, pkts int) {
	r.sPSN += uint32(pkts) // want "modified with \+= without masking"
}
