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

// CallFunc is the static body of a payload event: a top-level function (or
// any func value that already exists — scheduling it allocates nothing) that
// receives the three words the event carried. recv is the owner the call
// dispatches on (a *Port, a *Switch, ...), frame the packet riding in the
// event, arg a small scalar (a port number, a length, a side).
type CallFunc func(recv any, frame []byte, arg int)

// Event is a scheduled callback. Callbacks run exactly once.
//
// An event has one body representation: call plus its payload (recv, frame,
// arg). Schedule(func()) is the same thing with the func stored in recv.
// While an event is pending it owns frame; the references are dropped the
// moment it fires or is cancelled, before the callback runs, so a recycled
// event never keeps a frame alive.
//
// Handle validity: popped and cancelled events are recycled through a
// per-engine free list, so a retained *Event remains inspectable (Fired,
// Cancelled) only until the engine reuses it for a later Schedule. The
// supported pattern — clear the retained handle inside the callback or
// immediately after Cancel — never observes a recycled event.
type Event struct {
	at    Time
	index int // slot in the queue; -1 once popped or cancelled
	state uint8

	call  CallFunc
	recv  any
	frame []byte
	arg   int
}

// Cancelled reports whether the event was cancelled before firing. A fired
// event reports false (earlier versions conflated the two states).
func (e *Event) Cancelled() bool { return e.state == stateCancelled }

// Fired reports whether the event's callback ran (true from the moment the
// callback starts executing).
func (e *Event) Fired() bool { return e.state == stateFired }

// At returns the virtual time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// release drops the payload references and returns them for the caller to
// run (fire) or discard (cancel).
func (e *Event) release() (call CallFunc, recv any, frame []byte, arg int) {
	call, recv, frame, arg = e.call, e.recv, e.frame, e.arg
	e.call, e.recv, e.frame = nil, nil, nil
	return
}

// entry is one queue slot: the ordering key by value, so a comparison reads
// the slice and never chases the event pointer. Order is (at, birthAt, rank,
// childIdx): events of one parent keep creation order (shared rank, rising
// childIdx — the classic FIFO tie-break); events of different parents
// scheduled for the same instant order by their parents' causal rank, so the
// order never depends on which unrelated events happened to be scheduled in
// between.
type entry struct {
	at      Time
	birthAt Time // engine clock when the event was scheduled

	// rank and childIdx are the causal tie-break: rank is a hash of the
	// scheduling event's own rank and child index (a pure function of the
	// event's causal ancestry), and childIdx counts the parent's children so
	// siblings keep FIFO order.
	rank     uint64
	childIdx uint64

	ev *Event
}

func (a *entry) less(b *entry) bool {
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

// eventQueue is a 4-ary min-heap of entries, sifted in place with no
// interface calls. The key order is total, so the pop order is the same as
// any other correct priority queue's (container/heap's included).
type eventQueue []entry

// heapArity 4 halves the depth a push climbs; measured against 2 and 8 on
// BenchmarkEngineHold/Fanout it is within noise of 2 on the hold model and
// ahead on the push-heavy fanout, and 8 trails on both (DESIGN.md §14).
const heapArity = 4

// up moves x from slot i toward the root until its parent is not later.
func (q eventQueue) up(i int, x entry) {
	for i > 0 {
		parent := (i - 1) / heapArity
		if !x.less(&q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].ev.index = i
		i = parent
	}
	q[i] = x
	x.ev.index = i
}

// down moves x from slot i toward the leaves until no child is earlier.
func (q eventQueue) down(i int, x entry) {
	n := len(q)
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q[c].less(&q[best]) {
				best = c
			}
		}
		if !q[best].less(&x) {
			break
		}
		q[i] = q[best]
		q[i].ev.index = i
		i = best
	}
	q[i] = x
	x.ev.index = i
}

// push adds x. The slot is grown first and written once, by up.
func (q *eventQueue) push(x entry) {
	n := len(*q)
	if n < cap(*q) {
		*q = (*q)[:n+1]
	} else {
		*q = append(*q, entry{})
	}
	q.up(n, x)
}

// remove takes slot i out of the queue (the caller has read what it needs
// from it) and marks its event as no longer queued.
func (q *eventQueue) remove(i int) {
	old := *q
	old[i].ev.index = -1
	n := len(old) - 1
	moved := old[n]
	old[n] = entry{}
	*q = old[:n]
	if i == n {
		return
	}
	if i > 0 && moved.less(&old[(i-1)/heapArity]) {
		q.up(i, moved)
	} else {
		q.down(i, moved)
	}
}

// Engine is the simulation core: a virtual clock plus an event queue.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now     Time
	queue   eventQueue
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
	return e.ScheduleAt(e.after(delay), fn)
}

// ScheduleAt runs fn at the absolute virtual time at, which must not be in
// the past. The func rides in the event's recv slot: one body representation.
func (e *Engine) ScheduleAt(at Time, fn func()) *Event {
	if fn == nil {
		panic("sim: nil event func")
	}
	return e.ScheduleCallAt(at, callFunc, fn, nil, 0)
}

func callFunc(recv any, _ []byte, _ int) { recv.(func())() }

// ScheduleCall runs call(recv, frame, arg) after delay. With a static call
// and a pointer-shaped recv the schedule→fire cycle allocates nothing, which
// is what the per-frame sites use; the event owns frame until it fires.
func (e *Engine) ScheduleCall(delay Duration, call CallFunc, recv any, frame []byte, arg int) *Event {
	return e.ScheduleCallAt(e.after(delay), call, recv, frame, arg)
}

// ScheduleCallAt is ScheduleCall at the absolute virtual time at, which must
// not be in the past.
func (e *Engine) ScheduleCallAt(at Time, call CallFunc, recv any, frame []byte, arg int) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if call == nil {
		panic("sim: nil event func")
	}
	ev := e.alloc()
	ev.at = at
	ev.state = statePending
	ev.call, ev.recv, ev.frame, ev.arg = call, recv, frame, arg
	rank, childIdx := e.nextChild()
	e.queue.push(entry{at: at, birthAt: e.now, rank: rank, childIdx: childIdx, ev: ev})
	return ev
}

// after returns now+delay, panicking on a negative delay.
func (e *Engine) after(delay Duration) Time {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	return e.now.Add(delay)
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

// parentRank derives the rank an event passes on to its own children.
func parentRank(rank, childIdx uint64) uint64 {
	return splitmix64(rank ^ (childIdx+1)*0x9e3779b97f4a7c15)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.state != statePending {
		return
	}
	e.queue.remove(ev.index)
	ev.release()
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
	head := &e.queue[0]
	if head.at < e.now {
		panic("sim: time went backwards")
	}
	e.now = head.at
	ev := head.ev
	e.execRank = parentRank(head.rank, head.childIdx)
	e.queue.remove(0)
	call, recv, frame, arg := ev.release()
	ev.state = stateFired
	e.executing = true
	e.execKids = 0
	e.Executed++
	call(recv, frame, arg)
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
