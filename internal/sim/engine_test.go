package sim

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %d, want 30", e.Now())
	}
}

func TestSameTickFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-tick events reordered: order[%d] = %d", i, v)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var hits []Time
	e.Schedule(10, func() {
		hits = append(hits, e.Now())
		e.Schedule(5, func() { hits = append(hits, e.Now()) })
		e.Schedule(0, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	want := []Time{10, 10, 15}
	if len(hits) != len(want) {
		t.Fatalf("hits = %v", hits)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("hits = %v, want %v", hits, want)
		}
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	e := New()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.ScheduleAt(5, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := New()
	fired := 0
	e.Schedule(10, func() { fired++ })
	e.Schedule(20, func() { fired++ })
	e.Schedule(30, func() { fired++ })
	if e.RunUntil(20) {
		t.Fatal("RunUntil reported drained with events pending")
	}
	if fired != 2 || e.Now() != 20 {
		t.Fatalf("fired=%d now=%d", fired, e.Now())
	}
	if !e.RunUntil(1 << 40) {
		t.Fatal("RunUntil should drain")
	}
	if fired != 3 {
		t.Fatalf("fired=%d", fired)
	}
}

// TestHeapProperty drives the engine with arbitrary delays and checks
// events always fire in nondecreasing time order.
func TestHeapProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New()
		var last Time
		ok := true
		for _, d := range delays {
			e.Schedule(Time(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok && e.Fired() == uint64(len(delays))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClockConversions(t *testing.T) {
	if CPUCycles(4) != 2000 {
		t.Fatalf("CPUCycles(4) = %d", CPUCycles(4))
	}
	if GPUCycles(2) != 2858 {
		t.Fatalf("GPUCycles(2) = %d", GPUCycles(2))
	}
}

// TestZeroDelaySelfReschedule: an event that re-arms itself with zero
// delay fires again at the same tick — behind events already queued for
// that tick, so zero-delay loops cannot starve their peers — and the
// engine still advances to later ticks afterwards.
func TestZeroDelaySelfReschedule(t *testing.T) {
	e := New()
	var log []int
	hops := 0
	var self func()
	self = func() {
		log = append(log, hops)
		hops++
		if hops < 5 {
			e.Schedule(0, self)
		}
	}
	e.Schedule(10, self)
	e.Schedule(10, func() { log = append(log, 100) })
	reached := false
	e.Schedule(11, func() { reached = true })
	e.Run()
	want := []int{0, 100, 1, 2, 3, 4}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
	if !reached || e.Now() != 11 {
		t.Fatalf("reached=%v now=%d", reached, e.Now())
	}
}

// TestBucketWrap exercises the overflow path: targets past the current
// wheel window [base, base+wheelTicks) go to the overflow heap and drain
// back into the wheel as the window turns over, including a chain that
// always jumps one full window ahead of itself.
func TestBucketWrap(t *testing.T) {
	e := New()
	var fired []Time
	rec := func() { fired = append(fired, e.Now()) }
	for _, at := range []Time{3, wheelTicks - 1, wheelTicks, wheelTicks + 1,
		3*wheelTicks + 7, 10*wheelTicks + 123} {
		e.ScheduleAt(at, rec)
	}
	jumps := 0
	var hop func()
	hop = func() {
		fired = append(fired, e.Now())
		if jumps < 4 {
			jumps++
			e.Schedule(wheelTicks, hop)
		}
	}
	e.ScheduleAt(5, hop)
	e.Run()
	want := []Time{3, 5, wheelTicks - 1, wheelTicks, wheelTicks + 1,
		wheelTicks + 5, 2*wheelTicks + 5, 3*wheelTicks + 5, 3*wheelTicks + 7,
		4*wheelTicks + 5, 10*wheelTicks + 123}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d: %v", len(fired), len(want), fired)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired[%d] = %d, want %d", i, fired[i], want[i])
		}
	}
	if e.Fired() != uint64(len(want)) {
		t.Fatalf("Fired = %d", e.Fired())
	}
}

// TestCalendarHeapCrossCheck drives the calendar queue against a plain
// reference ordered by (time, schedule order), with randomized targets
// spanning several wheel windows and callbacks that schedule follow-up
// work mid-run — so wheel inserts, overflow inserts, and overflow→wheel
// migration at turnover all interleave.
func TestCalendarHeapCrossCheck(t *testing.T) {
	crossCheck(t, New(), rand.New(rand.NewSource(1)), 1000)
}

// crossCheck schedules n events on e at random times up to six wheel
// windows past e.Now(), whose callbacks schedule up to 2n follow-ups up to
// four windows ahead, runs e until it drains, and checks the firing order
// against a sorted-list model ordered by (time, schedule order). It
// reports with t.Errorf, so goroutines may call it.
func crossCheck(t *testing.T, e *Engine, rng *rand.Rand, n int) {
	type ev struct {
		at  Time
		seq int
	}
	var model, got []ev
	seq := 0
	var schedule func(at Time)
	schedule = func(at Time) {
		id := seq
		seq++
		model = append(model, ev{at, id})
		e.ScheduleAt(at, func() {
			got = append(got, ev{e.Now(), id})
			if seq < 3*n && rng.Intn(3) == 0 {
				schedule(e.Now() + Time(rng.Intn(4*wheelTicks)))
			}
		})
	}
	now := e.Now()
	for i := 0; i < n; i++ {
		schedule(now + Time(rng.Intn(6*wheelTicks)))
	}
	e.Run()
	sort.SliceStable(model, func(i, j int) bool { return model[i].at < model[j].at })
	if len(got) != len(model) {
		t.Errorf("fired %d events, want %d", len(got), len(model))
		return
	}
	for i := range model {
		if got[i] != model[i] {
			t.Errorf("event %d: got (at=%d seq=%d), want (at=%d seq=%d)",
				i, got[i].at, got[i].seq, model[i].at, model[i].seq)
			return
		}
	}
	if e.wheel != nil {
		t.Errorf("drained engine kept its wheel")
	}
}

// TestWheelPoolHandoff alternates two engines: A drains and returns its
// wheel to the pool, B schedules and runs on it, then A schedules again on
// the wheel B returned, each run checked against the sorted-list model.
// sync.Pool may drop a wheel (it drops a quarter of Puts under -race),
// when the next engine simply gets a fresh one, so the test asserts only
// that some run did reuse the previous run's wheel.
func TestWheelPoolHandoff(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := New(), New()
	var last *wheel
	reused := 0
	for round := 0; round < 32; round++ {
		for _, e := range []*Engine{a, b} {
			var held *wheel
			e.Schedule(0, func() { held = e.wheel })
			crossCheck(t, e, rng, 100)
			if held == last {
				reused++
			}
			last = held
		}
	}
	if reused == 0 {
		t.Error("no engine ever ran on the wheel the other engine released")
	}
	t.Logf("%d of 64 runs reused the previous run's wheel", reused)
}

// TestWheelPoolParallel runs engines on several goroutines at once, all
// taking wheels from and returning them to the shared pool. Run it under
// -race -count=10.
func TestWheelPoolParallel(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			e := New()
			for i := 0; i < 16; i++ {
				crossCheck(t, e, rng, 100)
				crossCheck(t, New(), rng, 100)
			}
		}(int64(10 + g))
	}
	wg.Wait()
}

// TestWheelMustBeEmpty checks the dynamic guard on pooled wheels: a
// drained engine's wheel is wholly empty (every head nilNode, every bit
// clear) and passes, and a wheel with any summary bit set panics.
func TestWheelMustBeEmpty(t *testing.T) {
	e := New()
	var drained *wheel
	e.Schedule(0, func() { drained = e.wheel })
	crossCheck(t, e, rand.New(rand.NewSource(3)), 200)
	for i, b := range drained.buckets {
		if b.head != nilNode {
			t.Fatalf("drained wheel: bucket %d head %d", i, b.head)
		}
	}
	if drained.bits != ([len(drained.bits)]uint64{}) || drained.summary != ([len(drained.summary)]uint64{}) {
		t.Fatal("drained wheel has occupancy bits set")
	}
	drained.mustBeEmpty()

	for i := range drained.summary {
		w := wheels.New().(*wheel)
		w.summary[i] = 1 << (i * 7)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("summary word %d set: no panic", i)
				}
			}()
			w.mustBeEmpty()
		}()
	}
}

// TestResetRestartsAtZero runs an engine across several wheel windows and
// resets it: it restarts at time 0 with no event fired, same-tick events
// fire in schedule order, and its next run matches the model as a new
// engine's would.
func TestResetRestartsAtZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := New()
	crossCheck(t, e, rng, 200)
	if e.Now() < wheelTicks {
		t.Fatalf("the first run ended at %d, inside the first wheel window", e.Now())
	}
	e.Reset()
	if e.Now() != 0 || e.Fired() != 0 || e.base != 0 || e.seq != 0 {
		t.Fatalf("after Reset: now %d, fired %d, base %d, seq %d; want all 0", e.Now(), e.Fired(), e.base, e.seq)
	}
	var order []int
	for i := 0; i < 50; i++ {
		e.Schedule(5, func() { order = append(order, i) })
	}
	if e.Run() != 5 {
		t.Fatalf("same-tick run ended at %d, want 5", e.Now())
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-tick events reordered after Reset: order[%d] = %d", i, v)
		}
	}
	e.Reset()
	crossCheck(t, e, rng, 200)
}

// TestResetPanicsWhenQueued checks that an engine with an event queued
// refuses to reset: the event belongs to the run being discarded.
func TestResetPanicsWhenQueued(t *testing.T) {
	e := New()
	e.Schedule(10, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("Reset with an event queued did not panic")
		}
	}()
	e.Reset()
}
