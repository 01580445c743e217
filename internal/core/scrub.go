package core

import (
	"gem/internal/rnic"
	"gem/internal/sim"
)

// Anti-entropy scrub: the repair path beneath replication.
//
// Mirrored posting keeps a replica close to its primary, but three honest
// gaps remain: async mode declares entries lost past the lag bound, a
// promotion refuses to replay posted-but-unacknowledged entries (a blind
// replay would double-apply FAAs), and a replica that crashes and restarts
// comes back with wiped DRAM. The scrubber closes all three the way real
// replicated stores do — periodically compare checksums of primary and
// replica windows and copy the primary's bytes over any divergence. It
// models the control-plane scrub agent that reads both copies out of band
// (the comparison traffic is not modeled on the wire; the counters make the
// repair work visible instead).
//
// Each tick checks two chunks: the cursor chunk (a full deterministic sweep
// every Length/Chunk ticks) and one chunk drawn from the scrubber's private
// "scrub" random substream, so hot divergence is found faster than the sweep
// period while staying seed-reproducible.

// ScrubConfig parameterizes one scrubber.
type ScrubConfig struct {
	// Interval paces scrub ticks (default 10 µs).
	Interval sim.Duration
	// Chunk is the comparison granularity in bytes (default 64).
	Chunk int
	// Live gates each tick: scrubbing only makes sense while both copies
	// are reachable and authoritative (e.g. both NICs alive, no promotion
	// in progress). Nil = always live.
	Live func() bool
}

// ScrubStats count the scrubber's work. Flat and comparable.
type ScrubStats struct {
	Ticks         int64 // ticks that ran (live)
	Skipped       int64 // ticks the Live gate suppressed
	ChunksChecked int64
	Diverged      int64 // chunks whose checksums disagreed
	Repairs       int64 // chunks copied primary → replica
	BytesRepaired int64
}

// Add returns the element-wise sum of s and o.
func (s ScrubStats) Add(o ScrubStats) ScrubStats {
	s.Ticks += o.Ticks
	s.Skipped += o.Skipped
	s.ChunksChecked += o.ChunksChecked
	s.Diverged += o.Diverged
	s.Repairs += o.Repairs
	s.BytesRepaired += o.BytesRepaired
	return s
}

// Scrubber periodically compares a primary byte window against its replica
// and repairs divergence in the replica. It reads and repairs the two
// servers' registered regions through their data path (ReadAt/WriteAt),
// like RDMA does, so it sees a crash wipe and never holds region memory.
type Scrubber struct {
	eng              *sim.Engine
	primary, replica *rnic.Region
	offset, length   int
	pbuf, rbuf       []byte // one chunk of each side
	cfg              ScrubConfig
	cursor           int
	stopped          bool
	started          bool

	Stats ScrubStats
}

// NewScrubber builds a scrubber over the length bytes at offset of both
// regions.
func NewScrubber(eng *sim.Engine, primary, replica *rnic.Region, offset, length int, cfg ScrubConfig) *Scrubber {
	if length <= 0 || !primary.Contains(primary.Base+uint64(offset), length) ||
		!replica.Contains(replica.Base+uint64(offset), length) {
		panic("core: scrubber needs a non-empty window inside both regions")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * sim.Microsecond
	}
	if cfg.Chunk <= 0 {
		cfg.Chunk = 64
	}
	return &Scrubber{
		eng: eng, primary: primary, replica: replica, offset: offset, length: length,
		pbuf: make([]byte, cfg.Chunk), rbuf: make([]byte, cfg.Chunk), cfg: cfg,
	}
}

// Start begins scrubbing. Call once.
func (s *Scrubber) Start() {
	if s.started {
		return
	}
	s.started = true
	s.eng.Ticker(s.cfg.Interval, func() bool {
		if s.stopped {
			return false
		}
		s.tick()
		return true
	})
}

// Stop ends scrubbing at the next tick (the engine can then quiesce).
func (s *Scrubber) Stop() { s.stopped = true }

func (s *Scrubber) chunks() int {
	return (s.length + s.cfg.Chunk - 1) / s.cfg.Chunk
}

func (s *Scrubber) tick() {
	if s.cfg.Live != nil && !s.cfg.Live() {
		s.Stats.Skipped++
		return
	}
	s.Stats.Ticks++
	n := s.chunks()
	s.check(s.cursor)
	s.cursor = (s.cursor + 1) % n
	if r := s.eng.Stream("scrub").Intn(n); r != s.cursor {
		s.check(r)
	}
}

// check compares chunk i's checksums and repairs the replica on mismatch.
func (s *Scrubber) check(i int) {
	lo := i * s.cfg.Chunk
	n := min(s.cfg.Chunk, s.length-lo)
	p, r := s.pbuf[:n], s.rbuf[:n]
	s.primary.ReadAt(p, s.primary.Base+uint64(s.offset+lo))
	s.replica.ReadAt(r, s.replica.Base+uint64(s.offset+lo))
	s.Stats.ChunksChecked++
	if fnv64(p) == fnv64(r) {
		return
	}
	s.Stats.Diverged++
	s.replica.WriteAt(p, s.replica.Base+uint64(s.offset+lo))
	s.Stats.Repairs++
	s.Stats.BytesRepaired += int64(n)
}

// fnv64 is FNV-1a, inlined so the scrub tick stays allocation-free.
func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
