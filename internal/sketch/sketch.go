// Package sketch implements the streaming summaries the paper's telemetry
// use case (§2.3) runs over remote counters: Count Sketch [Charikar et al.].
// The sketch's counter arrays live in remote DRAM via the state-store
// primitive; this package supplies the index/sign arithmetic (switch side)
// and the estimation (operator side, reading the server's memory directly).
//
// Row hashes must be mutually independent or the per-row median does
// nothing. CRC32 with per-row seeds is NOT independent (CRCs with different
// initial states differ by a key-independent constant), so the rows use a
// splitmix64-style finalizer over per-row random constants — the standard
// trick for simulating pairwise-independent hash families.
package sketch

import (
	"math/rand"
	"sort"
)

// mix64 is the splitmix64 finalizer: a bijective avalanche mix.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// CountSketch is the d×w Count Sketch over an abstract counter store. The
// switch computes (row, column, sign) per packet and applies signed
// increments; any uint64-indexed counter array can back it — in the paper's
// design, a remote memory region updated with Fetch-and-Add (signed deltas
// encoded two's-complement).
type CountSketch struct {
	Rows, Width int
	colSeed     []uint64
	signSeed    []uint64
}

// NewCountSketch returns a sketch with d rows of w counters, with row
// hashes derived from the given seed (deterministic).
func NewCountSketch(d, w int) *CountSketch {
	return NewCountSketchSeeded(d, w, 0x5EED)
}

// NewCountSketchSeeded fixes the hash-family seed explicitly.
func NewCountSketchSeeded(d, w int, seed int64) *CountSketch {
	rng := rand.New(rand.NewSource(seed))
	cs := &CountSketch{Rows: d, Width: w}
	for i := 0; i < d; i++ {
		cs.colSeed = append(cs.colSeed, rng.Uint64())
		cs.signSeed = append(cs.signSeed, rng.Uint64())
	}
	return cs
}

func (cs *CountSketch) hash(row int, key uint64) (col int, sign int64) {
	col = int(mix64(key^cs.colSeed[row]) % uint64(cs.Width))
	sign = 1
	if mix64(key^cs.signSeed[row])&1 == 1 {
		sign = -1
	}
	return col, sign
}

// Position is one signed counter update contributed by a key.
type Position struct {
	Index int
	Delta int64
}

// Positions returns, for a key, the (flat counter index, signed delta)
// pairs a single packet contributes. The switch data plane issues one
// Fetch-and-Add per row with the signed delta.
func (cs *CountSketch) Positions(key uint64) []Position {
	out := make([]Position, cs.Rows)
	for r := 0; r < cs.Rows; r++ {
		col, sign := cs.hash(r, key)
		out[r] = Position{Index: r*cs.Width + col, Delta: sign}
	}
	return out
}

// Estimate reads the counter store and returns the median-of-rows estimate
// for key. counters must have Rows*Width entries (two's-complement int64
// stored as uint64).
func (cs *CountSketch) Estimate(counters []uint64, key uint64) int64 {
	ests := make([]int64, 0, cs.Rows)
	for r := 0; r < cs.Rows; r++ {
		col, sign := cs.hash(r, key)
		v := int64(counters[r*cs.Width+col])
		ests = append(ests, sign*v)
	}
	sort.Slice(ests, func(i, j int) bool { return ests[i] < ests[j] })
	mid := len(ests) / 2
	if len(ests)%2 == 1 {
		return ests[mid]
	}
	return (ests[mid-1] + ests[mid]) / 2
}
