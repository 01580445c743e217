package sketch

import (
	"math"
	"testing"
	"testing/quick"
)

// apply feeds count occurrences of key into a plain counter array.
func applyCS(cs *CountSketch, counters []uint64, key uint64, count int) {
	for i := 0; i < count; i++ {
		for _, p := range cs.Positions(key) {
			counters[p.Index] = uint64(int64(counters[p.Index]) + p.Delta)
		}
	}
}

func TestCountSketchExactWhenSparse(t *testing.T) {
	cs := NewCountSketch(3, 1024)
	counters := make([]uint64, 3*1024)
	applyCS(cs, counters, 42, 100)
	if est := cs.Estimate(counters, 42); est != 100 {
		t.Fatalf("estimate = %d, want 100 (sparse sketch must be exact)", est)
	}
	if est := cs.Estimate(counters, 999); est > 100 || est < -100 {
		t.Fatalf("absent key estimate = %d, should be near 0", est)
	}
}

func TestCountSketchHeavyHitterAccuracy(t *testing.T) {
	cs := NewCountSketch(4, 2048)
	counters := make([]uint64, 4*2048)
	// 1 elephant (10k) + 500 mice (10 each).
	applyCS(cs, counters, 7, 10000)
	for k := uint64(100); k < 600; k++ {
		applyCS(cs, counters, k, 10)
	}
	est := cs.Estimate(counters, 7)
	if math.Abs(float64(est-10000)) > 500 {
		t.Fatalf("elephant estimate = %d, want ≈10000", est)
	}
}

func TestCountSketchSignsBalance(t *testing.T) {
	cs := NewCountSketch(1, 64)
	pos, neg := 0, 0
	for k := uint64(0); k < 2000; k++ {
		for _, p := range cs.Positions(k) {
			if p.Delta > 0 {
				pos++
			} else {
				neg++
			}
		}
	}
	ratio := float64(pos) / float64(pos+neg)
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("sign balance = %.2f, want ≈0.5", ratio)
	}
}

func TestCountSketchPositionsInRange(t *testing.T) {
	cs := NewCountSketch(5, 333)
	f := func(k uint64) bool {
		for r, p := range cs.Positions(k) {
			if p.Index < r*333 || p.Index >= (r+1)*333 {
				return false
			}
			if p.Delta != 1 && p.Delta != -1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeededFamiliesDiffer(t *testing.T) {
	a := NewCountSketchSeeded(3, 512, 1)
	b := NewCountSketchSeeded(3, 512, 2)
	same := 0
	for k := uint64(0); k < 100; k++ {
		pa, pb := a.Positions(k), b.Positions(k)
		for r := range pa {
			if pa[r] == pb[r] {
				same++
			}
		}
	}
	if same > 30 {
		t.Fatalf("different seeds produced %d/300 identical positions", same)
	}
}

func TestRowsAreIndependent(t *testing.T) {
	// The regression that motivated the mix64 family: with CRC-seeded
	// rows, col_r(k) differed from col_0(k) by a key-independent
	// constant. Check that the per-key differences between rows vary.
	cs := NewCountSketch(2, 1<<16)
	diffs := map[int]bool{}
	for k := uint64(0); k < 200; k++ {
		p := cs.Positions(k)
		diffs[(p[1].Index-65536)-p[0].Index] = true
	}
	if len(diffs) < 100 {
		t.Fatalf("row hashes look affinely related: %d distinct diffs", len(diffs))
	}
}
