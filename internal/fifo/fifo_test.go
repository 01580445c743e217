package fifo

import "testing"

func TestFIFOOrder(t *testing.T) {
	var q Queue[int]
	if q.Len() != 0 {
		t.Fatalf("zero queue Len = %d", q.Len())
	}
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d, want 100", q.Len())
	}
	for i := 0; i < 100; i++ {
		if got := q.Peek(); got != i {
			t.Fatalf("Peek = %d, want %d", got, i)
		}
		if got := q.Pop(); got != i {
			t.Fatalf("Pop = %d, want %d", got, i)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len after drain = %d", q.Len())
	}
}

// TestFIFOWrap interleaves pushes and pops so the head wraps around the ring
// repeatedly, including across grows, and indexes every element with At.
func TestFIFOWrap(t *testing.T) {
	var q Queue[int]
	next, expect := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 3+round%5; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < 2+round%4 && q.Len() > 0; i++ {
			if got := q.Pop(); got != expect {
				t.Fatalf("round %d: Pop = %d, want %d", round, got, expect)
			}
			expect++
		}
		for i := 0; i < q.Len(); i++ {
			if got := q.At(i); got != expect+i {
				t.Fatalf("round %d: At(%d) = %d, want %d", round, i, got, expect+i)
			}
		}
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != expect {
			t.Fatalf("drain: Pop = %d, want %d", got, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("popped %d elements, pushed %d", expect, next)
	}
}

func TestFIFOPanics(t *testing.T) {
	var q Queue[string]
	for _, op := range []struct {
		name string
		f    func()
	}{
		{"Pop", func() { q.Pop() }},
		{"Peek", func() { q.Peek() }},
		{"At", func() { q.At(0) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on empty queue did not panic", op.name)
				}
			}()
			op.f()
		}()
	}
}

func TestFIFOReleasesReferences(t *testing.T) {
	var q Queue[[]byte]
	q.Push(make([]byte, 8))
	q.Pop()
	// After Pop the slot must not pin the slice.
	if q.buf[0] != nil {
		t.Fatal("Pop left a live reference in the ring")
	}
}

func BenchmarkFIFOPushPop(b *testing.B) {
	b.ReportAllocs()
	var q Queue[int]
	for i := 0; i < b.N; i++ {
		q.Push(i)
		q.Pop()
	}
}
