// Package detpath is golden testdata for the determinism analyzer. The
// test appends "detpath" to determinism.Packages so this package counts as
// sim-path code.
package detpath

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Engine mimics sim.Engine closely enough for the callback checks, which
// match on the receiver type name.
type Engine struct{ now int64 }

func (e *Engine) Schedule(delay int64, fn func()) { fn() }
func (e *Engine) ScheduleAt(at int64, fn func())  { fn() }
func (e *Engine) Now() int64                      { return e.now }

type Msg struct{ ID int }

type handler struct {
	eng *Engine
	ch  chan int
}

func (h *handler) HandleMessage(m *Msg) {
	go drain(h.ch) // want `go statement inside an engine event callback`
	h.ch <- m.ID   // want `channel send inside an engine event callback`
	<-h.ch         // want `channel receive inside an engine event callback`
}

func drain(ch chan int) {}

// hotFormat formats per message inside HandleMessage: flagged, except the
// panic argument (a dying run may format freely).
type hotFormat struct{ last string }

func (h *hotFormat) HandleMessage(m *Msg) {
	h.last = fmt.Sprintf("msg %d", m.ID) // want `fmt\.Sprintf inside an engine event callback`
	fmt.Println(h.last)                  // want `fmt\.Println inside an engine event callback`
	if m.ID < 0 {
		panic(fmt.Sprintf("negative id %d", m.ID))
	}
	panic(fmt.Errorf("unreachable %s", h.last))
}

func scheduleFormat(e *Engine) {
	e.Schedule(5, func() {
		_ = fmt.Sprint(e.Now()) // want `fmt\.Sprint inside an engine event callback`
	})
}

// coldFormat is outside any event callback: formatting is fine there
// (setup, teardown, reports).
func coldFormat(id int) string {
	return fmt.Sprintf("node %d", id)
}

func scheduleBad(e *Engine, ch chan int) {
	e.Schedule(5, func() {
		ch <- 1 // want `channel send inside an engine event callback`
	})
	e.ScheduleAt(9, func() {
		go drain(ch) // want `go statement inside an engine event callback`
	})
}

// outsideCallback is the workload-coroutine pattern: goroutines and
// channels are fine outside event callbacks.
func outsideCallback(ch chan int) int {
	go drain(ch)
	ch <- 1
	return <-ch
}

func wallClock() time.Duration {
	t := time.Now()      // want `time\.Now on the deterministic sim path`
	return time.Since(t) // want `time\.Since on the deterministic sim path`
}

// hostTiming reads host time that nothing simulated depends on, each read
// under a justified directive, so neither is flagged.
func hostTiming() time.Duration {
	//spandex:wallclock host time for a progress line; no result depends on it
	t := time.Now()
	//spandex:wallclock host time for a progress line; no result depends on it
	return time.Since(t)
}

func deadline(t time.Time) time.Duration {
	return time.Until(t) // want `time\.Until on the deterministic sim path`
}

func wallClockTimers() {
	<-time.After(time.Second)        // want `time\.After on the deterministic sim path`
	_ = time.Tick(time.Second)       // want `time\.Tick on the deterministic sim path`
	t := time.NewTimer(time.Second)  // want `time\.NewTimer on the deterministic sim path`
	k := time.NewTicker(time.Second) // want `time\.NewTicker on the deterministic sim path`
	t.Stop()
	k.Stop()
}

func globalRand() int {
	return rand.Intn(10) // want `global rand\.Intn on the deterministic sim path`
}

func shuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `global rand\.Shuffle on the deterministic sim path`
}

// seededRand is the blessed pattern: a locally seeded generator.
func seededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

// sumCounts accumulates integers, which commutes: no diagnostic.
func sumCounts(m map[int]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// maskOf or-folds bits, which commutes: no diagnostic.
func maskOf(m map[int]uint64) uint64 {
	var mask uint64
	for _, v := range m {
		mask |= v
	}
	return mask
}

// rewriteValues performs keyed writes into another map: no diagnostic.
func rewriteValues(m map[int]int, dst map[int]int) {
	for k, v := range m {
		dst[k] = v * 2
	}
}

// prune deletes while ranging, which Go permits and which commutes.
func prune(m map[int]int) {
	for k, v := range m {
		if v == 0 {
			delete(m, k)
		}
	}
}

// setFlag writes a loop-independent value, which is idempotent.
func setFlag(m map[int]int) bool {
	any := false
	for _, v := range m {
		if v > 0 {
			any = true
		}
	}
	return any
}

func keysUnsorted(m map[int]int) []int {
	var out []int
	for k := range m { // want `nondeterministic map iteration`
		out = append(out, k)
	}
	return out
}

func concat(m map[int]int) string {
	s := ""
	for k := range m { // want `nondeterministic map iteration`
		s += string(rune(k))
	}
	return s
}

func firstMatch(m map[int]int) int {
	for k, v := range m { // want `nondeterministic map iteration`
		if v > 0 {
			return k
		}
	}
	return -1
}

// suppressed carries a justified directive, so it is not flagged.
func suppressed(m map[int]int) []int {
	var out []int
	//spandex:maprange order normalized by the sort below
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// bareDirective lacks a justification, so the directive does not suppress.
func bareDirective(m map[int]int) []int {
	var out []int
	//spandex:maprange
	for k := range m { // want `nondeterministic map iteration`
		out = append(out, k)
	}
	return out
}

// sliceRange is not a map range: never flagged.
func sliceRange(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}

// syncMapOrderSensitive: sync.Map iterates in unspecified order just like
// a plain map; appending in the callback is order-dependent.
func syncMapOrderSensitive(m *sync.Map) []any {
	var out []any
	m.Range(func(k, v any) bool { // want `nondeterministic sync.Map.Range`
		out = append(out, v)
		return true
	})
	return out
}

// syncMapEarlyStop: `return false` stops the iteration at an
// order-dependent element even though the body otherwise commutes.
func syncMapEarlyStop(m *sync.Map, counts map[int]int) {
	m.Range(func(k, v any) bool { // want `nondeterministic sync.Map.Range`
		n, _ := v.(int)
		counts[n]++
		return n == 0
	})
}

// syncMapCommutative: keyed writes plus `return true` commute, exactly
// like the accepted plain-map range bodies.
func syncMapCommutative(m *sync.Map, counts map[int]int) {
	m.Range(func(k, v any) bool {
		n, _ := k.(int)
		counts[n]++
		return true
	})
}

// syncMapSuppressed carries a justified directive.
func syncMapSuppressed(m *sync.Map) []any {
	var out []any
	//spandex:maprange order normalized by the caller's sort
	m.Range(func(k, v any) bool {
		out = append(out, v)
		return true
	})
	return out
}

// valueMapRange: Range on a non-sync Map type is not flagged.
type registry struct{}

func (registry) Range(fn func(int) bool) {}

func notSyncMap(r registry) {
	var xs []int
	r.Range(func(i int) bool {
		xs = append(xs, i)
		return true
	})
	_ = xs
}
