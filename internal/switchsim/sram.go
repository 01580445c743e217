package switchsim

import "fmt"

// SRAMBudget models the scarce on-chip memory that motivates the paper:
// tables and register arrays must allocate from it up front (as P4 objects
// do at compile time), and exceeding it fails loudly.
type SRAMBudget struct {
	Total  int
	used   int
	allocs map[string]int
}

// NewSRAMBudget returns a budget of total bytes.
func NewSRAMBudget(total int) *SRAMBudget {
	return &SRAMBudget{Total: total, allocs: make(map[string]int)}
}

// Alloc reserves n bytes under name. It returns an error when the budget
// would be exceeded — the switch-memory wall the paper is about.
func (s *SRAMBudget) Alloc(name string, n int) error {
	if n < 0 {
		return fmt.Errorf("switchsim: negative SRAM allocation %d for %s", n, name)
	}
	if s.used+n > s.Total {
		return fmt.Errorf("switchsim: SRAM exhausted: %s needs %d bytes, %d of %d free",
			name, n, s.Total-s.used, s.Total)
	}
	s.used += n
	s.allocs[name] += n
	return nil
}

// MustAlloc is Alloc that panics, for fixed infrastructure the switch
// program cannot run without.
func (s *SRAMBudget) MustAlloc(name string, n int) {
	if err := s.Alloc(name, n); err != nil {
		panic(err)
	}
}

// Free releases n bytes previously allocated under name.
func (s *SRAMBudget) Free(name string, n int) {
	s.used -= n
	s.allocs[name] -= n
	if s.allocs[name] <= 0 {
		delete(s.allocs, name)
	}
}

// Used reports allocated bytes.
func (s *SRAMBudget) Used() int { return s.used }

// Free bytes remaining.
func (s *SRAMBudget) Remaining() int { return s.Total - s.used }

// Allocations returns a copy of the per-object allocation map.
func (s *SRAMBudget) Allocations() map[string]int {
	out := make(map[string]int, len(s.allocs))
	//gem:deterministic — map-to-map copy; insertion order is irrelevant (path: TestSRAMBudget)
	for k, v := range s.allocs {
		out[k] = v
	}
	return out
}
