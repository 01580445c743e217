package switchsim

import "fmt"

// ExactTable is an exact-match match-action table holding values of type V
// keyed by K. Capacity is fixed at creation and its SRAM is reserved up
// front, like a P4 table.
type ExactTable[K comparable, V any] struct {
	name     string
	capacity int
	entrySz  int
	m        map[K]V
	sram     *SRAMBudget

	// Hits and Misses count lookups for the harnesses.
	Hits   int64
	Misses int64
}

// NewExactTable allocates a table of capacity entries of entryBytes each
// from the budget.
func NewExactTable[K comparable, V any](sram *SRAMBudget, name string, capacity, entryBytes int) (*ExactTable[K, V], error) {
	if err := sram.Alloc(name, capacity*entryBytes); err != nil {
		return nil, err
	}
	return &ExactTable[K, V]{
		name: name, capacity: capacity, entrySz: entryBytes,
		m: make(map[K]V, capacity), sram: sram,
	}, nil
}

// Lookup returns the value for key and whether it was present, updating the
// hit/miss counters.
func (t *ExactTable[K, V]) Lookup(key K) (V, bool) {
	v, ok := t.m[key]
	if ok {
		t.Hits++
	} else {
		t.Misses++
	}
	return v, ok
}

// Insert adds or replaces an entry. It returns an error when the table is
// full (the condition that forces the slow path in the motivating systems).
func (t *ExactTable[K, V]) Insert(key K, v V) error {
	if _, exists := t.m[key]; !exists && len(t.m) >= t.capacity {
		return fmt.Errorf("switchsim: table %s full (%d entries)", t.name, t.capacity)
	}
	t.m[key] = v
	return nil
}

// HitRate returns hits/(hits+misses), or 0 with no lookups.
func (t *ExactTable[K, V]) HitRate() float64 {
	total := t.Hits + t.Misses
	if total == 0 {
		return 0
	}
	return float64(t.Hits) / float64(total)
}

// CacheTable is an ExactTable with FIFO eviction: inserting into a full
// table evicts the oldest entry instead of failing. The lookup-table
// primitive uses one as its local SRAM cache.
type CacheTable[K comparable, V any] struct {
	*ExactTable[K, V]
	order []K

	Evictions int64
}

// NewCacheTable allocates a FIFO-evicting cache from the budget.
func NewCacheTable[K comparable, V any](sram *SRAMBudget, name string, capacity, entryBytes int) (*CacheTable[K, V], error) {
	t, err := NewExactTable[K, V](sram, name, capacity, entryBytes)
	if err != nil {
		return nil, err
	}
	return &CacheTable[K, V]{ExactTable: t}, nil
}

// Put inserts key→v, evicting the oldest entry when full.
func (c *CacheTable[K, V]) Put(key K, v V) {
	if _, exists := c.m[key]; exists {
		c.m[key] = v
		return
	}
	if len(c.m) >= c.capacity && len(c.order) > 0 {
		victim := c.order[0]
		c.order = c.order[1:]
		delete(c.m, victim)
		c.Evictions++
	}
	c.m[key] = v
	c.order = append(c.order, key)
}

// RegisterArray is a stateful array of 64-bit registers, the P4 object the
// primitives keep counters, ring pointers and pending state in.
type RegisterArray struct {
	name string
	regs []uint64
}

// NewRegisterArray allocates n 64-bit registers from the budget.
func NewRegisterArray(sram *SRAMBudget, name string, n int) (*RegisterArray, error) {
	if err := sram.Alloc(name, n*8); err != nil {
		return nil, err
	}
	return &RegisterArray{name: name, regs: make([]uint64, n)}, nil
}

// Get returns register i.
func (r *RegisterArray) Get(i int) uint64 { return r.regs[i] }

// Set stores v into register i.
func (r *RegisterArray) Set(i int, v uint64) { r.regs[i] = v }
