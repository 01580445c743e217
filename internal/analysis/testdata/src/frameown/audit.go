package frameown

// The mutations of the audit table (DESIGN.md §6.1) that no test catches
// and frameown does, reduced to their shape. The id names the table row.

// fo-uar-2: the requester fills a wire copy after handing it to the port.
func sendCopy(frame []byte) {
	c := pool.Get(len(frame))
	sink(c)
	copy(c, frame) // want "use of frame \"c\" after release"
}

// inject stands in for Channel.inject, which owns what it is handed.
//
//gem:owns
func inject(frame []byte) bool {
	pool.Put(frame)
	return true
}

// fo-uar-3: the retransmitter fills a wire copy after injecting it.
func injectCopy(frame []byte) {
	c := pool.Get(len(frame))
	inject(c)
	copy(c, frame) // want "use of frame \"c\" after release"
}

// fo-leak-5: a malformed bounced original is dropped without recycling.
func bounced(payload []byte, malformed bool) {
	orig := pool.Get(len(payload))
	copy(orig, payload)
	if malformed {
		return // want "owned frame \"orig\" leaks"
	}
	sink(orig)
}
