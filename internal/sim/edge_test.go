package sim

import (
	"fmt"
	"testing"
)

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

// TestCancelExecutingEvent: by the time a callback runs, its event is no
// longer pending; Cancel from inside (or after) must be a no-op and never
// hand the event to the free list a second time.
func TestCancelExecutingEvent(t *testing.T) {
	e := NewEngine(1)
	var ev *Event
	ev = e.Schedule(10, func() {
		if ev.index != -1 {
			t.Error("executing event still queued")
		}
		e.Cancel(ev)
	})
	e.Run()
	e.Cancel(ev)
	if len(e.free) != 1 {
		t.Fatalf("free list holds %d events, want the fired one once", len(e.free))
	}
	if e.Executed != 1 {
		t.Fatalf("Executed = %d, want 1", e.Executed)
	}
}

// TestEventStates pins the queue slot an event's state lives in: a slot
// while it is queued, -1 once it fired or was cancelled.
func TestEventStates(t *testing.T) {
	e := NewEngine(1)
	ev := e.Schedule(10, func() {})
	if ev.index < 0 {
		t.Fatal("scheduled event not queued")
	}
	e.Run()
	if ev.index != -1 {
		t.Fatalf("fired event still holds slot %d", ev.index)
	}

	ev2 := e.Schedule(10, func() { t.Error("cancelled event ran") })
	e.Cancel(ev2)
	if ev2.index != -1 {
		t.Fatalf("cancelled event still holds slot %d", ev2.index)
	}
	e.Run()
	if e.Executed != 1 {
		t.Fatalf("Executed = %d, want 1", e.Executed)
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
