package switchsim

import "fmt"

// SRAMBudget models the scarce on-chip memory that motivates the paper:
// tables and register arrays must allocate from it up front (as P4 objects
// do at compile time), and exceeding it fails loudly.
type SRAMBudget struct {
	Total int
	used  int
}

// NewSRAMBudget returns a budget of total bytes.
func NewSRAMBudget(total int) *SRAMBudget {
	return &SRAMBudget{Total: total}
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
	return nil
}

// Used reports allocated bytes.
func (s *SRAMBudget) Used() int { return s.used }
