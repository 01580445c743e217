package verbs

import (
	"math/bits"

	"gem/internal/sim"
)

// LatencyBuckets is the number of log2 histogram buckets. Bucket i counts
// completions whose post→CQE latency in nanoseconds has bit length i, i.e.
// lies in [2^(i-1), 2^i); bucket 0 is zero-latency (same-event) completions.
// 31 buckets cover up to ~1 s of simulated latency, far beyond any RTO.
const LatencyBuckets = 31

// LatencyHist is an allocation-free log2 latency histogram, recorded at the
// moment a completion retires its WQE (post time is WQE.Issued). It is a
// fixed-size value type so Stats stays flat and comparable, and Observe is a
// shift-and-increment so it can sit on the completion hot path without
// disturbing the zero-allocation guarantee.
type LatencyHist struct {
	Buckets [LatencyBuckets]int64
	Count   int64
	SumNs   int64
	MaxNs   int64
}

// Observe records one post→CQE latency sample.
func (h *LatencyHist) Observe(d sim.Duration) {
	ns := max(int64(d), 0)
	h.Buckets[min(bits.Len64(uint64(ns)), LatencyBuckets-1)]++
	h.Count++
	h.SumNs += ns
	h.MaxNs = max(h.MaxNs, ns)
}

// Add returns the element-wise sum of h and o (Max takes the max).
func (h LatencyHist) Add(o LatencyHist) LatencyHist {
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
	h.Count += o.Count
	h.SumNs += o.SumNs
	h.MaxNs = max(h.MaxNs, o.MaxNs)
	return h
}
