// Package sim provides a deterministic discrete-event simulation engine.
//
// All components of the testbed (links, NICs, switches, traffic generators)
// schedule work on an Engine. Time is a virtual nanosecond clock; the engine
// executes events in (time, birth-time, causal-rank, child-index) order — the
// tie-break is a pure function of each event's causal ancestry, so two runs
// with the same seed replay identically. A single goroutine owns an Engine;
// none of the methods are safe for concurrent use.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the run.
type Time int64

// Duration is a span of virtual time in nanoseconds. It mirrors a subset of
// time.Duration so call sites read naturally (3*sim.Microsecond).
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds reports d as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Std converts d to a time.Duration for formatting.
func (d Duration) Std() time.Duration { return time.Duration(d) }

func (d Duration) String() string { return d.Std().String() }

// Seconds reports t as floating-point seconds since the start of the run.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

func (t Time) String() string { return time.Duration(t).String() }

// Event lifecycle states. An event is pending while it sits in the queue and
// transitions exactly once to fired or cancelled.
const (
	statePending uint8 = iota + 1
	stateFired
	stateCancelled
)

// Event is a scheduled callback. Callbacks run exactly once.
//
// Handle validity: popped and cancelled events are recycled through a
// per-engine free list, so a retained *Event remains inspectable (Fired,
// Cancelled) only until the engine reuses it for a later Schedule. The
// supported pattern — clear the retained handle inside the callback or
// immediately after Cancel — never observes a recycled event.
type Event struct {
	at      Time
	birthAt Time // engine clock when the event was scheduled

	// rank and childIdx are the causal tie-break: rank is a hash of the
	// scheduling event's own rank and child index (a pure function of the
	// event's causal ancestry), and childIdx counts the parent's children so
	// siblings keep FIFO order.
	rank     uint64
	childIdx uint64

	index int // heap index; -1 once popped or cancelled
	state uint8
	fn    func()
}

// Cancelled reports whether the event was cancelled before firing. A fired
// event reports false (earlier versions conflated the two states).
func (e *Event) Cancelled() bool { return e.state == stateCancelled }

// Fired reports whether the event's callback ran (true from the moment the
// callback starts executing).
func (e *Event) Fired() bool { return e.state == stateFired }

// At returns the virtual time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// eventHeap orders events by (at, birthAt, rank, childIdx). Events of one
// parent keep creation order (shared rank, rising childIdx — the classic
// FIFO tie-break); events of different parents scheduled for the same
// instant order by their parents' causal rank, so the order never depends on
// which unrelated events happened to be scheduled in between.
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.birthAt != b.birthAt {
		return a.birthAt < b.birthAt
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.childIdx < b.childIdx
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Engine is the simulation core: a virtual clock plus an event queue.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now     Time
	queue   eventHeap
	stopped bool

	// Causal-rank state: execRank/execKids describe the currently executing
	// event as a parent; rootKids counts events scheduled outside any event
	// (setup code).
	executing bool
	execRank  uint64
	execKids  uint64
	rootKids  uint64

	// free recycles popped/cancelled events so the steady-state
	// schedule→fire cycle performs no allocation.
	free []*Event

	// seed is the run seed; every Stream substream derives from it.
	seed    int64
	streams map[string]*rand.Rand

	// Executed counts events that have run, for diagnostics and tests.
	Executed uint64
}

// NewEngine returns an engine whose clock reads zero and whose Stream
// substreams derive from seed (deterministic across runs).
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// splitmix64 is the SplitMix64 mixing function, used to derive independent
// seeds from the run seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64 is FNV-1a over s, for hashing stream names.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Stream returns the named random substream, created on first use. The
// substream's seed depends only on the run seed and name — not on creation
// order or on any other consumer's draws — so adding a consumer never shifts
// another's sequence. Names must be unique per consumer across the whole run
// (e.g. "port:tor[3]").
func (e *Engine) Stream(name string) *rand.Rand {
	if r, ok := e.streams[name]; ok {
		return r
	}
	if e.streams == nil {
		e.streams = make(map[string]*rand.Rand)
	}
	r := rand.New(rand.NewSource(int64(splitmix64(uint64(e.seed) ^ fnv64(name)))))
	e.streams[name] = r
	return r
}

// alloc returns a recycled event if one is available, else a fresh one; the
// scheduler rewrites every field.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{}
}

// Schedule runs fn after delay. A negative delay is an error in the caller;
// Schedule panics to surface it immediately.
func (e *Engine) Schedule(delay Duration, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	return e.ScheduleAt(e.now.Add(delay), fn)
}

// ScheduleAt runs fn at the absolute virtual time at, which must not be in
// the past.
func (e *Engine) ScheduleAt(at Time, fn func()) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: nil event func")
	}
	ev := e.alloc()
	ev.at = at
	ev.birthAt = e.now
	ev.rank, ev.childIdx = e.nextChild()
	ev.state = statePending
	ev.fn = fn
	heap.Push(&e.queue, ev)
	return ev
}

// rootRank seeds the causal rank of events scheduled outside any event.
const rootRank = 0x8f1b5c0f2a6d3e47

// nextChild returns the causal (rank, childIdx) for a newly scheduled event:
// the executing event's rank and its next child slot, or the root rank and
// the root counter during setup.
func (e *Engine) nextChild() (uint64, uint64) {
	if e.executing {
		idx := e.execKids
		e.execKids++
		return e.execRank, idx
	}
	idx := e.rootKids
	e.rootKids++
	return rootRank, idx
}

// parentRank derives the rank ev passes on to its own children.
func parentRank(ev *Event) uint64 {
	return splitmix64(ev.rank ^ (ev.childIdx+1)*0x9e3779b97f4a7c15)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.state != statePending {
		return
	}
	heap.Remove(&e.queue, ev.index)
	ev.fn = nil
	ev.state = stateCancelled
	e.free = append(e.free, ev)
}

// Pending reports the number of events waiting to run.
func (e *Engine) Pending() int { return len(e.queue) }

// Stop makes the current Run/RunUntil call return after the current event.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single earliest pending event and returns true, or
// returns false if the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*Event)
	if ev.at < e.now {
		panic("sim: time went backwards")
	}
	e.now = ev.at
	fn := ev.fn
	ev.fn = nil
	ev.state = stateFired
	e.executing = true
	e.execRank = parentRank(ev)
	e.execKids = 0
	e.Executed++
	fn()
	e.executing = false
	e.free = append(e.free, ev)
	return true
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with time <= deadline, then advances the clock to
// deadline (even if the queue still holds later events). A Stop leaves the
// clock at the stopping event: events before deadline may still be pending.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped && len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.Step()
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

// RunFor executes events for d of virtual time from now.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// Ticker invokes fn every period until fn returns false or the engine stops.
// The first invocation happens after one period.
func (e *Engine) Ticker(period Duration, fn func() bool) {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	var tick func()
	tick = func() {
		if fn() {
			e.Schedule(period, tick)
		}
	}
	e.Schedule(period, tick)
}
