package verbs

import (
	"testing"

	"gem/internal/sim"
)

// Both log2 histograms put a sample in the bucket of its bit length, clamp
// negatives to bucket 0 and overflow to the last bucket, and track the max.
func TestHistBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11}, {1 << 40, -1}}
	for _, c := range cases {
		var lat LatencyHist
		var lag LagHist
		lat.Observe(sim.Duration(c.v))
		lag.Observe(int(c.v))
		wantLat, wantLag := c.want, c.want
		if c.want < 0 {
			wantLat, wantLag = LatencyBuckets-1, MirrorLagBuckets-1
		}
		if lat.Buckets[wantLat] != 1 || lat.Count != 1 || lat.MaxNs != max(c.v, 0) {
			t.Errorf("LatencyHist.Observe(%d) = %+v, want bucket %d", c.v, lat, wantLat)
		}
		if lag.Buckets[wantLag] != 1 || lag.Count != 1 || lag.Max != max(c.v, 0) {
			t.Errorf("LagHist.Observe(%d) = %+v, want bucket %d", c.v, lag, wantLag)
		}
	}

	var a, b LagHist
	a.Observe(7)
	b.Observe(300)
	if s := a.Add(b); s.Count != 2 || s.Max != 300 || s.Buckets[3] != 1 || s.Buckets[9] != 1 {
		t.Errorf("LagHist.Add = %+v", s)
	}
}
