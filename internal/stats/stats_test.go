package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Percentile(0) != 0 || h.Percentile(50) != 0 || h.Percentile(100) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramBasic(t *testing.T) {
	var h Histogram
	for _, v := range []int64{5, 1, 3, 2, 4} {
		h.Add(v)
	}
	if got := h.Percentile(50); got != 3 {
		t.Fatalf("median = %d", got)
	}
	if lo, hi := h.Percentile(0), h.Percentile(100); lo != 1 || hi != 5 {
		t.Fatalf("min/max = %d/%d", lo, hi)
	}
}

func TestHistogramPercentileInterpolation(t *testing.T) {
	var h Histogram
	h.Add(0)
	h.Add(100)
	if got := h.Percentile(50); got != 50 {
		t.Fatalf("p50 of {0,100} = %d, want 50", got)
	}
	if got := h.Percentile(0); got != 0 {
		t.Fatalf("p0 = %d", got)
	}
	if got := h.Percentile(100); got != 100 {
		t.Fatalf("p100 = %d", got)
	}
	if got := h.Percentile(25); got != 25 {
		t.Fatalf("p25 = %d", got)
	}
}

func TestHistogramAddAfterQuery(t *testing.T) {
	var h Histogram
	h.Add(10)
	_ = h.Percentile(50)
	h.Add(1) // must re-sort
	if got := h.Percentile(0); got != 1 {
		t.Fatalf("min = %d after post-query add", got)
	}
}

func TestPropPercentileMonotone(t *testing.T) {
	f := func(vals []int16) bool {
		var h Histogram
		for _, v := range vals {
			h.Add(int64(v))
		}
		prev := int64(math.MinInt64)
		for p := 0.0; p <= 100; p += 7 {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropPercentileWithinRange(t *testing.T) {
	f := func(vals []int16, p uint8) bool {
		if len(vals) == 0 {
			return true
		}
		var h Histogram
		for _, v := range vals {
			h.Add(int64(v))
		}
		v := h.Percentile(float64(p % 101))
		return v >= h.Percentile(0) && v <= h.Percentile(100)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeterRecord(t *testing.T) {
	var m Meter
	m.Record(100)
	m.Record(200)
	if m.Bytes != 300 || m.Frames != 2 {
		t.Fatalf("meter = %+v", m)
	}
}

func TestLossStats(t *testing.T) {
	l := LossStats{Offered: 100, Delivered: 97, Dropped: 3}
	if math.Abs(l.Rate()-0.03) > 1e-12 {
		t.Fatalf("rate = %v", l.Rate())
	}
	var empty LossStats
	if empty.Rate() != 0 {
		t.Fatal("empty loss rate should be 0")
	}
	if s := l.String(); s == "" {
		t.Fatal("String empty")
	}
}
