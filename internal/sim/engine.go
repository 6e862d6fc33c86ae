// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulated components share one Engine. Time advances in integer ticks
// (1 tick = 1 picosecond by convention; see the constants below). Events
// scheduled for the same tick fire in the order they were scheduled, giving
// fully deterministic, reproducible executions regardless of host platform.
//
// The event queue is a calendar queue: a wheel of per-tick buckets covering
// the next wheelTicks ticks, backed by a binary heap for events beyond the
// window. Each bucket is a FIFO linked list of slab-allocated nodes, so
// same-tick ordering is insertion order and the schedule-order tie-break
// costs nothing; a two-level occupancy bitmap locates the next non-empty
// bucket with a handful of trailing-zero counts. Steady-state Schedule and
// Step are allocation-free. The wheel's fixed arrays belong to an engine
// only while events are queued: a drained engine hands its (empty) wheel
// back to a pool, and its next Schedule takes one from there.
package sim

import (
	"math/bits"
	"sync"
)

// Time is an absolute simulation time in ticks (picoseconds).
type Time uint64

// Common clock periods, in ticks.
const (
	// PsPerTick documents the tick unit: one picosecond.
	PsPerTick = 1

	// CPUCycle is the period of the 2 GHz CPU clock domain.
	CPUCycle Time = 500

	// GPUCycle is the period of the 700 MHz GPU clock domain
	// (1/700MHz = 1428.57 ps, rounded to an integer tick count).
	GPUCycle Time = 1429
)

// CPUCycles converts a CPU-cycle count into ticks.
func CPUCycles(n uint64) Time { return Time(n) * CPUCycle }

// GPUCycles converts a GPU-cycle count into ticks.
func GPUCycles(n uint64) Time { return Time(n) * GPUCycle }

// Event is a scheduled action. Components that schedule on every message
// hop implement Event on a pooled struct (see Pool) instead of passing a
// closure to Schedule, eliminating the per-hop allocation.
type Event interface {
	Fire()
}

// funcEvent adapts a plain callback to the Event interface. A func value
// is pointer-shaped, so the conversion does not allocate.
type funcEvent func()

func (f funcEvent) Fire() { f() }

// callEvent is a pooled single-value callback (the ubiquitous "deliver v
// to done" idiom in the L1 hit paths).
type callEvent struct {
	eng *Engine
	fn  func(uint32)
	v   uint32
}

func (c *callEvent) Fire() {
	fn, v := c.fn, c.v
	c.fn = nil
	c.eng.calls.Put(c)
	fn(v)
}

// Calendar-queue geometry. The wheel spans wheelTicks ticks; events due
// further out wait in an overflow heap and migrate into the wheel when it
// turns over. 1<<15 ticks = 64 CPU cycles covers NoC hops and cache
// latencies; DRAM responses (80k ticks) ride the overflow heap, which is
// small and cheap because only far-future events ever live there.
const (
	wheelBits  = 15
	wheelTicks = 1 << wheelBits
	wheelMask  = wheelTicks - 1
	// nilNode terminates bucket lists and the free list.
	nilNode = -1
)

// node is one queued event in the wheel's slab.
type node struct {
	ev   Event
	at   Time
	next int32
}

// bucket is one wheel slot's FIFO: head and tail indices into the node
// slab, fused into one struct so a push touches a single cache line.
type bucket struct {
	head, tail int32
}

// wheel is the calendar's fixed bucket array and its two-level occupancy
// bitmap: 32K buckets, one bit per bucket, one summary bit per bits word.
type wheel struct {
	buckets [wheelTicks]bucket
	bits    [wheelTicks / 64]uint64
	summary [(wheelTicks/64 + 63) / 64]uint64
}

// wheels holds empty wheels for engines to share, so that short-lived
// engines (fuzz machines, sweep cells) and engines that drain between
// steps (an mcheck world) do not each allocate and initialize 256 KB. A wheel enters the pool only from an
// engine whose queue drained: every head is nilNode and every bit clear.
// It is safe for concurrent use and carries no state between runs.
var wheels = sync.Pool{New: func() any {
	w := new(wheel)
	for i := range w.buckets {
		w.buckets[i].head = nilNode
	}
	return w
}}

// mustBeEmpty panics unless the wheel's summary bitmap is clear. A set
// summary bit means a bucket still holds events: the wheel was pooled
// before its engine drained, and reusing it would fire another engine's
// events. The summary covers every bits word, and a bits word covers its
// buckets, so the 8 summary words stand for the whole wheel.
func (w *wheel) mustBeEmpty() {
	for _, s := range w.summary {
		if s != 0 {
			panic("sim: pooled calendar wheel is not empty")
		}
	}
}

// overflowEvent is an event beyond the wheel window, heap-ordered by
// (at, seq); seq preserves schedule order across the heap round-trip.
type overflowEvent struct {
	at  Time
	seq uint64
	ev  Event
}

// overflowHeap is a hand-rolled min-heap ordered by (at, seq).
// container/heap would box every event into an interface value on the way
// in and out; DRAM-latency events transit this heap once per memory
// access, so the heap works on the concrete type.
type overflowHeap []overflowEvent

func (a overflowEvent) before(b overflowEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *overflowHeap) push(e overflowEvent) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s[i].before(s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *overflowHeap) pop() overflowEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = overflowEvent{}
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && s[r].before(s[l]) {
			c = r
		}
		if !s[c].before(s[i]) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	return top
}

// Engine is a discrete-event simulator. The zero value is ready to use.
// Engine is not safe for concurrent use; a simulation runs on one goroutine.
type Engine struct {
	now   Time
	seq   uint64
	fired uint64

	// base is the start of the wheel window [base, base+wheelTicks).
	// Invariants: every wheel event's time is in the window and at least
	// max(now, base); every overflow event's time is >= base+wheelTicks.
	base  Time
	count int    // events in the wheel
	wheel *wheel // nil while the queue is empty
	nodes []node
	free  int32

	overflow overflowHeap

	calls Pool[callEvent]
}

// New returns a fresh Engine at time zero.
func New() *Engine { return &Engine{} }

// init takes a wheel from the pool for a queue that was empty.
func (e *Engine) init() {
	w := wheels.Get().(*wheel)
	w.mustBeEmpty()
	e.wheel = w
	e.free = nilNode
}

// release returns the wheel of a drained queue to the pool. Every node is
// on the free list by then, so the slab restarts empty (keeping its
// capacity) and the next init starts from the same state as a new engine.
func (e *Engine) release() {
	wheels.Put(e.wheel)
	e.wheel = nil
	e.nodes = e.nodes[:0]
}

// Reset returns a drained engine to the state New returns: time 0, with
// the schedule and fired counts at 0. It keeps the node slab's capacity
// and the call-event pool. It panics if an event is queued: that event
// belongs to the run being discarded.
func (e *Engine) Reset() {
	if e.Pending() != 0 {
		panic("sim: Reset with events queued")
	}
	if e.wheel != nil {
		e.release()
	}
	e.now, e.seq, e.fired, e.base = 0, 0, 0, 0
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are waiting in the queue.
func (e *Engine) Pending() int { return e.count + len(e.overflow) }

// Schedule runs fn after delay ticks (possibly zero, meaning "later this
// tick", after all callbacks already queued for the current tick).
func (e *Engine) Schedule(delay Time, fn func()) {
	e.ScheduleEventAt(e.now+delay, funcEvent(fn))
}

// ScheduleAt runs fn at absolute time at. Scheduling in the past panics:
// it always indicates a modeling bug.
func (e *Engine) ScheduleAt(at Time, fn func()) {
	e.ScheduleEventAt(at, funcEvent(fn))
}

// ScheduleEvent fires ev after delay ticks.
func (e *Engine) ScheduleEvent(delay Time, ev Event) {
	e.ScheduleEventAt(e.now+delay, ev)
}

// ScheduleCall runs fn(v) after delay ticks. The event is pooled: unlike
// Schedule(delay, func() { fn(v) }), no closure is allocated.
func (e *Engine) ScheduleCall(delay Time, fn func(uint32), v uint32) {
	c := e.calls.Get()
	c.eng = e
	c.fn = fn
	c.v = v
	e.ScheduleEventAt(e.now+delay, c)
}

// ScheduleEventAt fires ev at absolute time at. Scheduling in the past
// panics: it always indicates a modeling bug.
func (e *Engine) ScheduleEventAt(at Time, ev Event) {
	if at < e.now {
		panic("sim: event scheduled in the past")
	}
	if e.wheel == nil {
		e.init()
	}
	if at >= e.base+wheelTicks {
		e.seq++
		e.overflow.push(overflowEvent{at: at, seq: e.seq, ev: ev})
		return
	}
	e.push(at, ev)
}

// push appends an event to its wheel bucket's FIFO.
func (e *Engine) push(at Time, ev Event) {
	n := e.free
	if n != nilNode {
		e.free = e.nodes[n].next
	} else {
		n = int32(len(e.nodes))
		e.nodes = append(e.nodes, node{})
	}
	e.nodes[n] = node{ev: ev, at: at, next: nilNode}

	w := e.wheel
	b := int(at & wheelMask)
	bk := &w.buckets[b]
	if bk.head == nilNode {
		bk.head = n
		w.bits[b>>6] |= 1 << (b & 63)
		w.summary[b>>12] |= 1 << ((b >> 6) & 63)
	} else {
		e.nodes[bk.tail].next = n
	}
	bk.tail = n
	e.count++
}

// scan returns the first occupied bucket at or after index from, searching
// the wheel circularly. The wheel window spans exactly wheelTicks ticks,
// so circular index order starting at the window floor is time order.
// Must only be called when count > 0.
func (e *Engine) scan(from int) int {
	wh := e.wheel
	w := from >> 6
	if word := wh.bits[w] >> (from & 63); word != 0 {
		return from + bits.TrailingZeros64(word)
	}
	if i := e.wordScan(w+1, len(wh.bits)); i >= 0 {
		return i<<6 + bits.TrailingZeros64(wh.bits[i])
	}
	if i := e.wordScan(0, w+1); i >= 0 {
		return i<<6 + bits.TrailingZeros64(wh.bits[i])
	}
	panic("sim: scan on empty wheel")
}

// wordScan returns the first bitmap-word index in [lo, hi) whose word is
// non-zero, located via the summary bitmap, or -1 if none.
func (e *Engine) wordScan(lo, hi int) int {
	for s := lo >> 6; s<<6 < hi; s++ {
		sw := e.wheel.summary[s]
		if s == lo>>6 {
			sw &= ^uint64(0) << (lo & 63)
		}
		if sw != 0 {
			if i := s<<6 + bits.TrailingZeros64(sw); i < hi {
				return i
			}
			return -1
		}
	}
	return -1
}

// turnOver advances the wheel window to the overflow heap's earliest event
// and migrates every overflow event inside the new window. Heap pop order
// is (at, seq), and bucket FIFOs append, so migrated events keep schedule
// order among themselves and precede anything scheduled afterwards.
func (e *Engine) turnOver() {
	e.base = e.overflow[0].at
	limit := e.base + wheelTicks
	for len(e.overflow) > 0 && e.overflow[0].at < limit {
		oe := e.overflow.pop()
		e.push(oe.at, oe.ev)
	}
}

// pop removes and returns the next event. Must only be called when events
// are pending.
func (e *Engine) pop() (Time, Event) {
	at, ev, _ := e.popDue(^Time(0))
	return at, ev
}

// popDue removes and returns the next event if its time is at most
// deadline; otherwise it leaves the queue untouched and reports false.
// Must only be called when events are pending. Fusing the bound check
// into the pop halves the bitmap scans RunUntil performs per event.
func (e *Engine) popDue(deadline Time) (Time, Event, bool) {
	if e.count == 0 {
		if e.overflow[0].at > deadline {
			return 0, nil, false
		}
		e.turnOver()
	}
	start := e.now
	if e.base > start {
		start = e.base
	}
	b := e.scan(int(start & wheelMask))
	w := e.wheel
	n := w.buckets[b].head
	nd := &e.nodes[n]
	at, ev := nd.at, nd.ev
	if at > deadline {
		return 0, nil, false
	}
	w.buckets[b].head = nd.next
	if nd.next == nilNode {
		w.bits[b>>6] &^= 1 << (b & 63)
		if w.bits[b>>6] == 0 {
			w.summary[b>>12] &^= 1 << ((b >> 6) & 63)
		}
	}
	nd.ev = nil
	nd.next = e.free
	e.free = n
	e.count--
	return at, ev, true
}

// Step executes the single next event. It reports false if no events
// remain, returning the drained queue's wheel to the pool.
func (e *Engine) Step() bool {
	if e.count == 0 && len(e.overflow) == 0 {
		if e.wheel != nil {
			e.release()
		}
		return false
	}
	at, ev := e.pop()
	e.now = at
	e.fired++
	ev.Fire()
	return true
}

// Run executes events until the queue drains, returning the final time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with time ≤ deadline. It reports whether the
// queue drained (true; the wheel goes back to the pool) or the deadline
// stopped execution first (false).
func (e *Engine) RunUntil(deadline Time) bool {
	for e.count > 0 || len(e.overflow) > 0 {
		at, ev, ok := e.popDue(deadline)
		if !ok {
			e.now = deadline
			return false
		}
		e.now = at
		e.fired++
		ev.Fire()
	}
	if e.wheel != nil {
		e.release()
	}
	return true
}
