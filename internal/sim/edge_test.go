package sim

import (
	"fmt"
	"testing"
)

// TestStopInsideFinalEvent: Stop called by the last queued event must leave
// the engine in a clean, reusable state — not wedge the stopped flag.
func TestStopInsideFinalEvent(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.Schedule(10, func() { ran++; e.Stop() })
	e.Run()
	if ran != 1 {
		t.Fatalf("final event ran %d times, want 1", ran)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after stop in final event", e.Pending())
	}
	// The engine must accept and run later work.
	e.Schedule(5, func() { ran++ })
	e.Run()
	if ran != 2 {
		t.Fatalf("post-stop event did not run (ran=%d)", ran)
	}
	if e.Now() != 15 {
		t.Fatalf("clock = %v, want 15ns", e.Now())
	}
}

// TestRunUntilExactDeadlineEvent: RunUntil is inclusive — an event scheduled
// exactly at the deadline fires; one a nanosecond later stays pending.
func TestRunUntilExactDeadlineEvent(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.ScheduleAt(100, func() { fired = append(fired, e.Now()) })
	e.ScheduleAt(101, func() { fired = append(fired, e.Now()) })
	e.RunUntil(100)
	if len(fired) != 1 || fired[0] != 100 {
		t.Fatalf("fired = %v, want exactly the deadline event at 100ns", fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %v, want 100ns", e.Now())
	}
}

// TestRunUntilStoppedKeepsClock: a Stop inside RunUntil leaves the clock at
// the stopping event, not at the deadline — an earlier event is still pending
// and a later Run must be able to fire it.
func TestRunUntilStoppedKeepsClock(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.ScheduleAt(10, func() { e.Stop() })
	e.ScheduleAt(20, func() { fired = append(fired, e.Now()) })
	e.RunUntil(100)
	if e.Now() != 10 {
		t.Fatalf("clock = %v after a stop at 10ns, want 10ns", e.Now())
	}
	e.Run()
	if len(fired) != 1 || fired[0] != 20 {
		t.Fatalf("fired = %v, want the pending event at 20ns", fired)
	}
}

// TestCancelExecutingEvent: by the time a callback runs, its event is fired;
// Cancel from inside (or after) must be a no-op and never mark it cancelled.
func TestCancelExecutingEvent(t *testing.T) {
	e := NewEngine(1)
	var ev *Event
	ev = e.Schedule(10, func() {
		if !ev.Fired() {
			t.Error("executing event does not report Fired")
		}
		if ev.Cancelled() {
			t.Error("executing event reports Cancelled")
		}
		e.Cancel(ev)
		if ev.Cancelled() {
			t.Error("Cancel of the executing event flipped it to cancelled")
		}
	})
	e.Run()
	if !ev.Fired() || ev.Cancelled() {
		t.Fatalf("after run: Fired=%v Cancelled=%v, want true/false", ev.Fired(), ev.Cancelled())
	}
	if e.Executed != 1 {
		t.Fatalf("Executed = %d, want 1", e.Executed)
	}
}

// TestTickerStopsWithEngine: Stop halts the run with the next tick still
// queued; the ticker must not fire past the stop point.
func TestTickerStopsWithEngine(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.Ticker(10, func() bool {
		n++
		if n == 3 {
			e.Stop()
		}
		return true
	})
	e.Run()
	if n != 3 {
		t.Fatalf("ticker fired %d times, want 3 (stop after third tick)", n)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want the queued-but-unrun next tick", e.Pending())
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30ns", e.Now())
	}
}

// TestEventStates pins the Fired/Cancelled state machine: a pending event
// reports neither, a fired event reports only Fired (the old implementation
// conflated fired with cancelled), a cancelled event reports only Cancelled.
func TestEventStates(t *testing.T) {
	e := NewEngine(1)
	ev := e.Schedule(10, func() {})
	if ev.Fired() || ev.Cancelled() {
		t.Fatalf("pending event: Fired=%v Cancelled=%v, want false/false", ev.Fired(), ev.Cancelled())
	}
	e.Run()
	if !ev.Fired() {
		t.Fatal("fired event does not report Fired")
	}
	if ev.Cancelled() {
		t.Fatal("fired event reports Cancelled (regression: fired/cancelled conflation)")
	}

	ev2 := e.Schedule(10, func() { t.Error("cancelled event ran") })
	e.Cancel(ev2)
	if ev2.Fired() || !ev2.Cancelled() {
		t.Fatalf("cancelled event: Fired=%v Cancelled=%v, want false/true", ev2.Fired(), ev2.Cancelled())
	}
	e.Run()
	if ev2.Fired() || !ev2.Cancelled() {
		t.Fatal("cancelled event changed state after Run")
	}
}

// TestEventFreeListReuse: fired and cancelled events go back to the free
// list and the next Schedule reuses them — the steady-state cycle must not
// allocate.
func TestEventFreeListReuse(t *testing.T) {
	e := NewEngine(1)
	ev := e.Schedule(10, func() {})
	e.Run()
	if got := e.Schedule(10, func() {}); got != ev {
		t.Fatal("Schedule after fire did not reuse the recycled event")
	}
	e.Run()

	ev2 := e.Schedule(10, func() {})
	e.Cancel(ev2)
	if got := e.Schedule(10, func() {}); got != ev2 {
		t.Fatal("Schedule after Cancel did not reuse the recycled event")
	}
	e.Run()
}

// TestSteadyStateZeroAllocs gates the schedule→fire cycle at zero
// allocations once the free list and heap capacity are warm.
func TestSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	e := NewEngine(1)
	var fn func()
	fn = func() { e.Schedule(10, fn) }
	e.Schedule(10, fn)
	for i := 0; i < 64; i++ { // warm the free list and heap capacity
		e.Step()
	}
	if allocs := testing.AllocsPerRun(1000, func() { e.Step() }); allocs != 0 {
		t.Fatalf("steady-state Step allocates %.1f times/op, want 0", allocs)
	}

	// The payload form — what the per-frame sites use: a static call, a
	// pointer receiver, a frame and a scalar.
	type hop struct{ e *Engine }
	var next CallFunc
	next = func(recv any, frame []byte, arg int) {
		recv.(*hop).e.ScheduleCall(10, next, recv, frame, arg+1)
	}
	e.ScheduleCall(10, next, &hop{e}, make([]byte, 64), 0)
	if allocs := testing.AllocsPerRun(1000, func() { e.Step() }); allocs != 0 {
		t.Fatalf("steady-state payload Step allocates %.1f times/op, want 0", allocs)
	}
}

// BenchmarkEngineStep measures the steady-state schedule→fire cycle: one
// event pops, its callback schedules the next. Reported allocs/op must be 0.
func BenchmarkEngineStep(b *testing.B) {
	e := NewEngine(1)
	var fn func()
	fn = func() { e.Schedule(10, fn) }
	e.Schedule(10, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineFanout stresses the heap with a 16-way fanout per fired
// event, bounded by cancelling the survivors — closer to switch/NIC traffic
// than the single-chain benchmark.
func BenchmarkEngineFanout(b *testing.B) {
	e := NewEngine(1)
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var evs [16]*Event
		for j := range evs {
			evs[j] = e.Schedule(Duration(j+1), nop)
		}
		e.Step()
		for _, ev := range evs[1:] {
			e.Cancel(ev)
		}
	}
}

// BenchmarkEngineHold is the classic hold model: the queue stays at a fixed
// depth while each fired event schedules one successor a random delay ahead
// — the shape of a loaded testbed (hundreds of frames in flight), which the
// single-chain benchmark above cannot show because its heap has one slot.
func BenchmarkEngineHold(b *testing.B) {
	for _, depth := range []int{64, 1024} {
		b.Run(fmt.Sprint(depth), func(b *testing.B) {
			e := NewEngine(1)
			rng := e.Stream("hold")
			var fn func()
			fn = func() { e.Schedule(Duration(rng.Intn(1000)+1), fn) }
			for i := 0; i < depth; i++ {
				e.Schedule(Duration(rng.Intn(1000)+1), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
