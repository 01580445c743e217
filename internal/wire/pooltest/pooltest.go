// Package pooltest makes frame leaks loud in tests: a package whose tests
// move pooled frames wires its TestMain through Main, and any test run that
// finishes with buffers still checked out of wire.DefaultPool fails the
// whole binary. With -race poisoning and wire.Pool.Clone it holds the
// one-owner rule for pooled frames (DESIGN.md §6): this ledger catches a
// leak or a double release on any path a test runs.
package pooltest

import (
	"fmt"
	"os"
	"testing"

	"gem/internal/wire"
)

// Main runs the package's tests and then audits wire.DefaultPool: every
// frame checked out by a test must have been recycled by the time the last
// test finishes. Use it as the package's TestMain body:
//
//	func TestMain(m *testing.M) { pooltest.Main(m) }
//
// Tests that intentionally leave frames in flight (frames parked in switch
// queues when the virtual clock stops) must drain them or recycle them in a
// cleanup; the failure message reports the exact drift.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if err := wire.DefaultPool.AssertBalanced(0); err != nil {
			fmt.Fprintf(os.Stderr, "pooltest: frame leak across test run: %v\n", err)
			code = 1
		}
	}
	os.Exit(code)
}
