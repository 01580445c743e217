package nodeterminism

import (
	"math"
	"math/rand"
	"time"
)

// The mutations of the audit table (DESIGN.md §6.1) that no test catches
// and nodeterminism does, reduced to their shape. The id names the table row.

// nd-clock-3: sketch hash seeds drawn from the wall clock.
func sketchSeeds(n int) []uint64 {
	rng := rand.New(rand.NewSource(time.Now().UnixNano())) // want "wall-clock time.Now"
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	return seeds
}

// nd-rand-2: a Poisson inter-arrival drawn from the global source.
func poissonInterval(eventsPerSec float64) float64 {
	return -math.Log(1-rand.Float64()) / eventsPerSec // want "global source"
}

// nd-rand-3: the scrubber's cursor jump drawn from the global source.
func scrubJump(cursor, n int) int {
	if r := rand.Intn(n); r != cursor { // want "global source"
		return r
	}
	return cursor
}
