// Package nodeterminism seeds known violations of the determinism contract
// for the gemlint nodeterminism pass.
package nodeterminism

import (
	"math/rand"
	"sort"
	"time"
)

func wallClock() time.Duration {
	start := time.Now()      // want "wall-clock time.Now"
	time.Sleep(time.Second)  // want "wall-clock time.Sleep"
	return time.Since(start) // want "wall-clock time.Since"
}

func globalRand() int {
	return rand.Intn(6) // want "global source"
}

func globalFloat() float64 {
	return rand.Float64() // want "global source"
}

func mapOrder(m map[int]int) []int {
	var out []int
	for k := range m { // want "map iteration order is nondeterministic"
		out = append(out, k)
	}
	return out
}

// --- clean code the pass must stay silent on ---

func seededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(6)
}

func durationsOnly(d time.Duration) time.Duration {
	return d * 2 // time.Duration arithmetic is fine; only the wall clock is banned
}

func sortedKeys(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	//gem:deterministic — collecting keys for sorting is order-independent
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func sliceRange(s []int) int {
	sum := 0
	for _, v := range s { // slices iterate in order
		sum += v
	}
	return sum
}
