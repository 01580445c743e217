// Package stats provides the measurement plumbing the experiment harnesses
// use: sample histograms with percentiles, byte/frame meters, and simple
// loss accounting.
package stats

import (
	"fmt"
	"math"
	"sort"

	"gem/internal/sim"
)

// Histogram accumulates int64 samples (typically nanoseconds) and reports
// order statistics. The zero value is ready to use.
type Histogram struct {
	samples []int64
	sorted  bool
}

// Add records one sample.
func (h *Histogram) Add(v int64) {
	h.samples = append(h.samples, v)
	h.sorted = false
}

// AddDuration records a duration sample.
func (h *Histogram) AddDuration(d sim.Duration) { h.Add(int64(d)) }

func (h *Histogram) sortSamples() {
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank interpolation. It returns 0 when the histogram is empty.
func (h *Histogram) Percentile(p float64) int64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.sortSamples()
	if p <= 0 {
		return h.samples[0]
	}
	if p >= 100 {
		return h.samples[len(h.samples)-1]
	}
	rank := p / 100 * float64(len(h.samples)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return h.samples[lo]
	}
	frac := rank - float64(lo)
	return int64(float64(h.samples[lo])*(1-frac) + float64(h.samples[hi])*frac)
}

// Meter accumulates byte and frame counts.
type Meter struct {
	Bytes  int64
	Frames int64
}

// Record adds one frame of n bytes.
func (m *Meter) Record(n int) { m.Bytes += int64(n); m.Frames++ }

// LossStats tracks offered vs delivered frames.
type LossStats struct {
	Offered   int64
	Delivered int64
	Dropped   int64
}

// Rate returns the fraction of offered frames that were lost.
func (l *LossStats) Rate() float64 {
	if l.Offered == 0 {
		return 0
	}
	return float64(l.Dropped) / float64(l.Offered)
}

func (l *LossStats) String() string {
	return fmt.Sprintf("offered=%d delivered=%d dropped=%d (%.3f%%)",
		l.Offered, l.Delivered, l.Dropped, l.Rate()*100)
}
