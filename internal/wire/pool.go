package wire

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Pool is a free list of frame buffers keyed by power-of-two size class.
// The simulation's "line rate" is how many frames per second the wire
// codecs can push through a core, so the per-frame hot path must not
// allocate: builders draw buffers here and terminal consumers return them.
//
// Ownership contract (see DESIGN.md, "Hot path & memory discipline"):
//
//   - A frame handed to netsim.Port.Send, switchsim.Switch.Inject, or
//     switchsim.Context.Emit is owned by the fabric from that point on and
//     may be recycled after terminal consumption. Senders must not retain a
//     frame they sent — retain a copy (drawn from the pool) instead.
//   - Decoded Packet views (Payload in particular) alias the frame buffer
//     and must not outlive its release; copy-on-retain before Release.
//   - Put must be called at most once per Get — a double release recycles
//     one buffer into two owners and corrupts both frames.
//
// A Pool is safe for concurrent use; the parallel experiment runner shares
// DefaultPool across goroutines. A nil *Pool is valid and degrades to plain
// allocation (Get = make, Put = no-op), which keeps the allocating wrapper
// APIs trivial.
type Pool struct {
	mu   sync.Mutex
	free [poolClasses][][]byte

	hits     int64
	misses   int64
	puts     int64
	oversize int64 // Gets larger than the largest class (plain make)
	dropped  int64 // Puts whose capacity fit no class (left to the GC)

	// trace, when non-nil, maps each checked-out buffer (by the address of
	// its first byte) to the Get call stack that produced it. Enabled via
	// GEM_POOL_TRACE=1 so a failing AssertBalanced can name the leaker.
	trace map[*byte]string
	// badPuts records stacks of Puts whose buffer was not checked out —
	// double releases or foreign (make-allocated) frames (capped).
	badPuts []string
}

const (
	poolMinShift = 6  // smallest class: 64 B (minimum Ethernet frame)
	poolMaxShift = 14 // largest class: 16 KiB (> any MTU used here)
	poolClasses  = poolMaxShift - poolMinShift + 1
)

// DefaultPool is the process-wide pool the simulation components share.
var DefaultPool = NewPool()

// NewPool returns an empty pool. Setting GEM_POOL_TRACE=1 in the
// environment makes the pool record the Get call stack of every
// checked-out buffer so AssertBalanced can report who leaked (slow;
// meant for chasing a failing leak check, not for benchmarks).
func NewPool() *Pool {
	p := &Pool{}
	if os.Getenv("GEM_POOL_TRACE") == "1" {
		p.trace = make(map[*byte]string)
	}
	return p
}

// traceKey identifies a buffer by the address of its first byte at full
// capacity, which survives re-slicing between Get and Put.
func traceKey(b []byte) *byte {
	if cap(b) == 0 {
		return nil
	}
	return &b[:1][0]
}

// traced records the caller stack for a checked-out buffer when tracing is
// on, and returns the buffer either way.
func (p *Pool) traced(b []byte) []byte {
	if p.trace == nil {
		return b
	}
	if k := traceKey(b); k != nil {
		stk := make([]byte, 8192)
		stk = stk[:runtime.Stack(stk, false)]
		p.mu.Lock()
		p.trace[k] = string(stk)
		p.mu.Unlock()
	}
	return b
}

// classFor returns the smallest class whose buffers hold n bytes, or -1 if
// n exceeds the largest class.
func classFor(n int) int {
	if n > 1<<poolMaxShift {
		return -1
	}
	c := 0
	for 1<<(poolMinShift+c) < n {
		c++
	}
	return c
}

// Get returns a buffer of length n. The contents are unspecified — callers
// must overwrite every byte they care about (the frame builders do).
func (p *Pool) Get(n int) []byte {
	if p == nil {
		return make([]byte, n)
	}
	c := classFor(n)
	if c < 0 {
		// Out-of-class traffic must stay visible in Stats: a hot path full
		// of oversized frames would otherwise look like a healthy pool.
		p.mu.Lock()
		p.oversize++
		p.mu.Unlock()
		return p.traced(make([]byte, n))
	}
	p.mu.Lock()
	if free := p.free[c]; len(free) > 0 {
		buf := free[len(free)-1]
		free[len(free)-1] = nil
		p.free[c] = free[:len(free)-1]
		p.hits++
		p.mu.Unlock()
		return p.traced(buf[:n])
	}
	p.misses++
	p.mu.Unlock()
	return p.traced(make([]byte, n, 1<<(poolMinShift+c)))
}

// Clone returns a pooled copy of b: the caller owns the copy, b is
// untouched. Drawing and filling the copy in one call is the copy-on-retain
// and copy-on-send idiom of the ownership contract — the copy is complete
// before the caller can hand it to the fabric.
func (p *Pool) Clone(b []byte) []byte {
	c := p.Get(len(b))
	copy(c, b)
	return c
}

// Put returns a buffer to the pool. Buffers smaller than the smallest class
// or larger than the largest are dropped (left to the GC); any capacity in
// between is binned by the largest class it can serve, so foreign buffers
// (plain make-allocated frames) are accepted too.
func (p *Pool) Put(b []byte) {
	if p == nil || b == nil {
		return
	}
	if p.trace != nil {
		if k := traceKey(b); k != nil {
			stk := make([]byte, 8192)
			stk = stk[:runtime.Stack(stk, false)]
			p.mu.Lock()
			if _, ok := p.trace[k]; ok {
				delete(p.trace, k)
			} else if len(p.badPuts) < 16 {
				// Not checked out: a double release or a foreign frame.
				p.badPuts = append(p.badPuts, string(stk))
			}
			p.mu.Unlock()
		}
	}
	if poolPoison {
		// Race/debug builds overwrite released buffers so a consumer that
		// retains a frame past its release reads obvious garbage instead of
		// silently decoding a recycled frame (see poison_race.go).
		poison(b[:cap(b)])
	}
	c := cap(b)
	if c < 1<<poolMinShift || c > 1<<poolMaxShift {
		p.mu.Lock()
		p.dropped++
		p.mu.Unlock()
		return
	}
	// Largest class with size <= cap.
	cl := 0
	for cl+1 < poolClasses && 1<<(poolMinShift+cl+1) <= c {
		cl++
	}
	p.mu.Lock()
	p.free[cl] = append(p.free[cl], b[:0])
	p.puts++
	p.mu.Unlock()
}

// PoolStats is an observability snapshot of a pool.
type PoolStats struct {
	Hits         int64 // Gets served from the free list
	Misses       int64 // in-class Gets that had to allocate
	Puts         int64 // buffers returned to a free list
	OversizeGets int64 // Gets larger than the largest class (plain make)
	DroppedPuts  int64 // Puts whose capacity fit no class (left to the GC)
	Free         int   // buffers currently pooled
}

// Balance returns gets minus puts: the number of buffers currently checked
// out of the pool. A steady-state simulation should return to the balance it
// started from once all frames drain.
func (s PoolStats) Balance() int64 {
	return (s.Hits + s.Misses + s.OversizeGets) - (s.Puts + s.DroppedPuts)
}

// AssertBalanced checks the ownership ledger: every Get must have been
// matched by a Put, except for `live` frames the caller knows are still
// legitimately held (parked continuations, queued frames counted by the
// caller). It returns an error describing the imbalance — a positive drift
// is a leak, a negative one a double release.
func (p *Pool) AssertBalanced(live int64) error {
	s := p.Stats()
	if got := s.Balance(); got != live {
		return fmt.Errorf("wire: pool imbalance: %d buffers checked out, want %d live (gets=%d puts=%d): %+v%s",
			got, live, s.Hits+s.Misses+s.OversizeGets, s.Puts+s.DroppedPuts, s, p.traceReport())
	}
	return nil
}

// traceReport summarizes outstanding Get stacks (GEM_POOL_TRACE=1), grouped
// by identical stack with a count, most frequent first.
func (p *Pool) traceReport() string {
	if p == nil || p.trace == nil {
		return ""
	}
	p.mu.Lock()
	counts := make(map[string]int, len(p.trace))
	//gem:deterministic — aggregating counts is order-independent (path: TestPoolTraceReportGroupsStacks)
	for _, stk := range p.trace {
		counts[stk]++
	}
	p.mu.Unlock()
	stacks := make([]string, 0, len(counts))
	//gem:deterministic — collecting keys for sorting is order-independent (path: TestPoolTraceReportGroupsStacks)
	for stk := range counts {
		stacks = append(stacks, stk)
	}
	sort.Slice(stacks, func(i, j int) bool {
		if counts[stacks[i]] != counts[stacks[j]] {
			return counts[stacks[i]] > counts[stacks[j]]
		}
		return stacks[i] < stacks[j]
	})
	var sb strings.Builder
	for _, stk := range stacks {
		fmt.Fprintf(&sb, "\n--- %d buffer(s) checked out from:\n%s", counts[stk], stk)
	}
	p.mu.Lock()
	bad := p.badPuts
	p.mu.Unlock()
	for _, stk := range bad {
		fmt.Fprintf(&sb, "\n--- Put of a buffer not checked out (double release or foreign frame) at:\n%s", stk)
	}
	return sb.String()
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := PoolStats{
		Hits: p.hits, Misses: p.misses, Puts: p.puts,
		OversizeGets: p.oversize, DroppedPuts: p.dropped,
	}
	for _, f := range p.free {
		s.Free += len(f)
	}
	return s
}

// poison fills a released buffer with a recognizable garbage byte. It is
// wired to Put only when poolPoison is set (race builds); the pattern makes
// use-after-release show up as wildly wrong lengths/opcodes, not plausible
// stale data.
func poison(b []byte) {
	for i := range b {
		b[i] = 0xDD
	}
}
