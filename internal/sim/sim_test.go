package sim

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30ns", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		e.Schedule(100, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events ran out of insertion order at %d: %v", i, order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var hits []Time
	e.Schedule(10, func() {
		hits = append(hits, e.Now())
		e.Schedule(5, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("nested schedule produced %v, want [10 15]", hits)
	}
}

func TestScheduleZeroDelayRunsAtSameTime(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.Schedule(7, func() {
		e.Schedule(0, func() {
			if e.Now() != 7 {
				t.Errorf("zero-delay event at %v, want 7", e.Now())
			}
			ran = true
		})
	})
	e.Run()
	if !ran {
		t.Fatal("zero-delay event never ran")
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	ran := false
	ev := e.Schedule(10, func() { ran = true })
	e.Cancel(ev)
	e.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if ev.index != -1 {
		t.Fatal("cancelled event still queued")
	}
	// Double-cancel and cancel-nil must be safe.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestCancelOneOfMany(t *testing.T) {
	e := NewEngine(1)
	var order []int
	evs := make([]*Event, 10)
	for i := 0; i < 10; i++ {
		i := i
		evs[i] = e.Schedule(Duration(10+i), func() { order = append(order, i) })
	}
	e.Cancel(evs[4])
	e.Cancel(evs[8])
	e.Run()
	want := []int{0, 1, 2, 3, 5, 6, 7, 9}
	if len(order) != len(want) {
		t.Fatalf("got %v want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("got %v want %v", order, want)
		}
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(100, func() {})
	e.Schedule(500, func() {})
	e.RunUntil(200)
	if e.Now() != 200 {
		t.Fatalf("clock = %v after RunUntil(200)", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if e.Now() != 500 {
		t.Fatalf("clock = %v, want 500", e.Now())
	}
}

func TestRunFor(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.Ticker(10, func() bool { count++; return true })
	e.RunFor(105)
	if count != 10 {
		t.Fatalf("ticker fired %d times in 105ns at period 10, want 10", count)
	}
	if e.Now() != 105 {
		t.Fatalf("clock = %v, want 105", e.Now())
	}
}

func TestTickerStops(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.Ticker(10, func() bool {
		count++
		return count < 3
	})
	e.Run()
	if count != 3 {
		t.Fatalf("ticker fired %d times, want 3", count)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	NewEngine(1).Schedule(-1, func() {})
}

func TestScheduleAtPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.ScheduleAt(50, func() {})
	})
	e.Run()
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Time {
		e := NewEngine(42)
		rng := e.Stream("test")
		var times []Time
		// Random-ish workload driven by the seeded RNG.
		var spawn func()
		spawn = func() {
			times = append(times, e.Now())
			if len(times) < 200 {
				e.Schedule(Duration(rng.Intn(100)+1), spawn)
				if rng.Intn(3) == 0 {
					e.Schedule(Duration(rng.Intn(50)+1), func() { times = append(times, e.Now()) })
				}
			}
		}
		e.Schedule(1, spawn)
		e.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestStreamDependsOnlyOnSeedAndName: a named substream yields the same
// sequence whatever streams were created before it and however much they
// were drawn from, and differs by name and by seed.
func TestStreamDependsOnlyOnSeedAndName(t *testing.T) {
	seq := func(e *Engine, name string) [4]int {
		s := e.Stream(name)
		var out [4]int
		for i := range out {
			out[i] = s.Intn(1 << 20)
		}
		return out
	}
	ref := seq(NewEngine(42), "consumer:x")

	e := NewEngine(42)
	for i := 0; i < 100; i++ {
		e.Stream("consumer:y").Int63()
	}
	if got := seq(e, "consumer:x"); got != ref {
		t.Fatalf("stream after another stream's draws = %v, want %v", got, ref)
	}
	if e.Stream("consumer:x") != e.Stream("consumer:x") {
		t.Fatal("Stream(name) is not one stream per name")
	}
	if seq(NewEngine(42), "consumer:y") == ref {
		t.Fatal("streams of different names share a sequence")
	}
	if seq(NewEngine(43), "consumer:x") == ref {
		t.Fatal("streams of different seeds share a sequence")
	}
}

// TestCausalRankOrder: events that different parents schedule at one instant
// for one instant fire grouped by parent — the groups in the order of the
// parents' causal ranks, siblings FIFO inside a group — and a replay fires
// them identically.
func TestCausalRankOrder(t *testing.T) {
	parents := []string{"a", "b", "c"}
	run := func() []string {
		e := NewEngine(1)
		var order []string
		for _, parent := range parents {
			parent := parent
			e.ScheduleAt(10, func() {
				for i := 0; i < 3; i++ {
					name := fmt.Sprintf("%s%d", parent, i)
					e.ScheduleAt(20, func() { order = append(order, name) })
				}
			})
		}
		e.Run()
		return order
	}

	// The parents are root children 0..2; each passes parentRank on.
	byRank := []int{0, 1, 2}
	rank := func(i int) uint64 { return parentRank(rootRank, uint64(i)) }
	sort.Slice(byRank, func(i, j int) bool { return rank(byRank[i]) < rank(byRank[j]) })
	var want []string
	for _, p := range byRank {
		for i := 0; i < 3; i++ {
			want = append(want, fmt.Sprintf("%s%d", parents[p], i))
		}
	}

	first, second := run(), run()
	if fmt.Sprint(first) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want causal-rank order %v", first, want)
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("replay diverged: %v vs %v", first, second)
	}
}

func TestDurationHelpers(t *testing.T) {
	if Second.Seconds() != 1.0 {
		t.Fatalf("Second.Seconds() = %v", Second.Seconds())
	}
	if (2 * Microsecond).String() != "2µs" {
		t.Fatalf("String = %q", (2 * Microsecond).String())
	}
	tm := Time(1500)
	if tm.Add(500) != 2000 {
		t.Fatal("Time.Add broken")
	}
	if tm.Sub(500) != 1000 {
		t.Fatal("Time.Sub broken")
	}
}

// Property: executing any batch of events never decreases the clock, and
// executes exactly len(batch) events.
func TestPropClockMonotone(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(7)
		last := Time(-1)
		ok := true
		for _, d := range delays {
			e.Schedule(Duration(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok && e.Executed == uint64(len(delays))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Ticker fires floor(horizon/period) times.
func TestPropTickerCount(t *testing.T) {
	f := func(p uint8, h uint16) bool {
		period := Duration(p%100) + 1
		horizon := Duration(h)
		e := NewEngine(7)
		n := 0
		e.Ticker(period, func() bool { n++; return true })
		e.RunFor(horizon)
		return n == int(horizon/period)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Stress: a large churn of schedules and cancels keeps the heap consistent
// and the clock monotone.
func TestHeapChurnStress(t *testing.T) {
	e := NewEngine(99)
	rng := e.Stream("test")
	var live []*Event
	executed := 0
	for i := 0; i < 5000; i++ {
		d := Duration(rng.Intn(1000) + 1)
		live = append(live, e.Schedule(d, func() { executed++ }))
		if len(live) > 100 && rng.Intn(2) == 0 {
			idx := rng.Intn(len(live))
			e.Cancel(live[idx])
			live = append(live[:idx], live[idx+1:]...)
		}
		if rng.Intn(10) == 0 {
			e.Step()
		}
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after Run", e.Pending())
	}
	if executed == 0 {
		t.Fatal("nothing executed")
	}
}

// checkHeap asserts the queue's structural invariants: every event knows its
// slot and no slot is earlier than its parent.
func checkHeap(t *testing.T, e *Engine) {
	t.Helper()
	for i := range e.queue {
		if e.queue[i].ev.index != i {
			t.Fatalf("slot %d holds an event that thinks it is at %d", i, e.queue[i].ev.index)
		}
		if i > 0 && e.queue[i].less(&e.queue[(i-1)/heapArity]) {
			t.Fatalf("slot %d is earlier than its parent", i)
		}
	}
}

// TestHeapMatchesReferenceOrder: over random Schedule / Cancel / Step
// sequences — events scheduled from set-up code and from inside callbacks,
// equal times included — every Step fires exactly the pending event a
// reference sort by (at, birthAt, rank, childIdx) puts first, and Cancel of
// the root, of the last slot and of an interior slot leaves that true.
func TestHeapMatchesReferenceOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		e := NewEngine(seed)
		rng := e.Stream("heap-test")
		live := map[*Event]entry{} // the reference: pending events by key
		var fired *Event
		var body CallFunc
		track := func(ev *Event) { live[ev] = e.queue[ev.index] }
		// An event with arg k schedules k children with arg k-1: a finite tree.
		body = func(recv any, _ []byte, kids int) {
			fired = *recv.(**Event)
			for i := 0; i < kids; i++ {
				h := new(*Event)
				*h = e.ScheduleCall(Duration(rng.Intn(4)*10), body, h, nil, kids-1)
				track(*h)
			}
		}
		schedule := func() {
			h := new(*Event)
			*h = e.ScheduleCall(Duration(rng.Intn(50)), body, h, nil, rng.Intn(3))
			track(*h)
		}
		cancel := func(slot int) {
			ev := e.queue[slot].ev
			e.Cancel(ev)
			if ev.index != -1 {
				t.Fatalf("seed %d: cancelled event index=%d", seed, ev.index)
			}
			delete(live, ev)
		}
		step := func() {
			var want *Event
			for ev, k := range live {
				if first := live[want]; want == nil || k.less(&first) {
					want = ev
				}
			}
			if !e.Step() {
				t.Fatalf("seed %d: Step found nothing with %d events live", seed, len(live))
			}
			if fired != want {
				t.Fatalf("seed %d: fired %+v, reference order wants %+v", seed, live[fired], live[want])
			}
			delete(live, want)
		}
		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(10); {
			case r < 4 || len(e.queue) == 0:
				schedule()
			case r == 4:
				cancel(0) // the root
			case r == 5:
				cancel(len(e.queue) - 1) // the last slot
			case r == 6:
				cancel(rng.Intn(len(e.queue))) // anywhere, mostly interior
			default:
				step()
			}
			checkHeap(t, e)
			if len(live) != e.Pending() {
				t.Fatalf("seed %d: %d pending, reference has %d", seed, e.Pending(), len(live))
			}
		}
		for len(live) > 0 {
			step()
		}
		if e.Pending() != 0 {
			t.Fatalf("seed %d: %d events left after the reference drained", seed, e.Pending())
		}
	}
}

// TestEventDropsPayloadReferences: an event owns its frame only while it is
// pending. Fired or cancelled, it has let go of recv and frame before it is
// recycled — already by the time the callback runs — so a parked event on
// the free list never keeps a frame alive.
func TestEventDropsPayloadReferences(t *testing.T) {
	e := NewEngine(1)
	held := func(ev *Event) bool { return ev.call != nil || ev.recv != nil || ev.frame != nil }
	type owner struct{ ev *Event }
	o := &owner{}
	frame := make([]byte, 64)

	o.ev = e.ScheduleCall(10, func(recv any, f []byte, arg int) {
		if recv != any(o) || &f[0] != &frame[0] || arg != 7 {
			t.Errorf("callback got (%v, %p, %d), want the scheduled payload", recv, f, arg)
		}
		if held(recv.(*owner).ev) {
			t.Error("the executing event still references its payload")
		}
	}, o, frame, 7)
	if !held(o.ev) {
		t.Fatal("a pending event does not hold its payload")
	}
	e.Run()
	if held(o.ev) || len(e.free) != 1 || e.free[0] != o.ev {
		t.Fatal("fired event kept payload references on the free list")
	}

	ev := e.ScheduleCall(10, func(any, []byte, int) { t.Error("cancelled event ran") }, o, frame, 0)
	e.Cancel(ev)
	if held(ev) {
		t.Fatal("cancelled event kept payload references on the free list")
	}
	e.Run()
}
