// Package cache provides the storage structures every cache controller is
// built from: a set-associative tag/data array with LRU replacement, a
// miss-status holding register (MSHR) file, and a coalescing write buffer.
// Protocol state machines live in the per-protocol packages; this package
// is purely structural.
package cache

import (
	"fmt"

	"spandex/internal/memaddr"
)

// Entry is one line frame in a set-associative array. State holds the
// protocol's per-line payload.
type Entry[S any] struct {
	Valid bool
	Line  memaddr.LineAddr
	State S

	lru uint64
}

// Array is a set-associative cache array with true-LRU replacement.
// Set frame storage is allocated lazily on first touch: configured arrays
// are often far larger than a workload's footprint, and eagerly zeroing
// hundreds of megabytes of untouched frames dominates construction cost.
type Array[S any] struct {
	sets, ways int
	// stride divides the line index before set selection. A bank of an
	// address-interleaved multi-bank cache only ever sees lines whose index
	// is congruent to its bank modulo the bank count; dividing by that
	// count first spreads them over every set instead of a 1/stride
	// subset. 0 and 1 both mean the ordinary single-bank mapping.
	stride uint64
	chunks [][]Entry[S]
	tick   uint64
}

// NewArray builds an array with the given geometry. sizeBytes must be a
// multiple of ways*LineBytes and the resulting set count a power of two.
func NewArray[S any](sizeBytes, ways int) *Array[S] {
	lines := sizeBytes / memaddr.LineBytes
	if lines%ways != 0 {
		panic(fmt.Sprintf("cache: %d lines not divisible by %d ways", lines, ways))
	}
	sets := lines / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", sets))
	}
	return &Array[S]{sets: sets, ways: ways, chunks: make([][]Entry[S], sets)}
}

// SetIndexStride makes set selection divide the line index by n first —
// the mapping a bank of an n-way interleaved multi-bank cache needs (see
// the stride field). Call before any line is installed.
func (a *Array[S]) SetIndexStride(n int) {
	if n < 0 {
		panic(fmt.Sprintf("cache: negative set-index stride %d", n))
	}
	a.stride = uint64(n)
}

// Reset returns the array to the state NewArray left it in: every set's
// frames unallocated again, not merely invalid, and the LRU clock at 0.
// The set-index stride stays.
func (a *Array[S]) Reset() {
	clear(a.chunks)
	a.tick = 0
}

// Sets returns the number of sets.
func (a *Array[S]) Sets() int { return a.sets }

// SetIndex returns the set a line maps to (telemetry and diagnostics).
func (a *Array[S]) SetIndex(line memaddr.LineAddr) int { return a.setOf(line) }

// Ways returns the associativity.
func (a *Array[S]) Ways() int { return a.ways }

func (a *Array[S]) setOf(line memaddr.LineAddr) int {
	idx := uint64(line) >> memaddr.LineShift
	if a.stride > 1 {
		idx /= a.stride
	}
	return int(idx) & (a.sets - 1)
}

// set returns setOf(line)'s frames, allocating them on first touch.
func (a *Array[S]) set(line memaddr.LineAddr) []Entry[S] {
	i := a.setOf(line)
	s := a.chunks[i]
	if s == nil {
		s = make([]Entry[S], a.ways)
		a.chunks[i] = s
	}
	return s
}

// Lookup returns the entry holding line, or nil. It refreshes LRU state.
func (a *Array[S]) Lookup(line memaddr.LineAddr) *Entry[S] {
	s := a.chunks[a.setOf(line)]
	for i := range s {
		e := &s[i]
		if e.Valid && e.Line == line {
			a.tick++
			e.lru = a.tick
			return e
		}
	}
	return nil
}

// Peek is Lookup without the LRU update (probes must not perturb reuse).
func (a *Array[S]) Peek(line memaddr.LineAddr) *Entry[S] {
	s := a.chunks[a.setOf(line)]
	for i := range s {
		e := &s[i]
		if e.Valid && e.Line == line {
			return e
		}
	}
	return nil
}

// Victim returns the frame that would hold line: an invalid frame in the
// set if one exists, otherwise the least recently used entry. The caller
// is responsible for evicting a valid victim before reusing the frame.
func (a *Array[S]) Victim(line memaddr.LineAddr) *Entry[S] {
	s := a.set(line)
	var victim *Entry[S]
	for i := range s {
		e := &s[i]
		if !e.Valid {
			return e
		}
		if victim == nil || e.lru < victim.lru {
			victim = e
		}
	}
	return victim
}

// VictimWhere is Victim restricted to frames satisfying ok (invalid frames
// always satisfy). It returns nil when every frame in the set is excluded —
// the caller must retry later.
func (a *Array[S]) VictimWhere(line memaddr.LineAddr, ok func(e *Entry[S]) bool) *Entry[S] {
	s := a.set(line)
	var victim *Entry[S]
	for i := range s {
		e := &s[i]
		if !e.Valid {
			return e
		}
		if !ok(e) {
			continue
		}
		if victim == nil || e.lru < victim.lru {
			victim = e
		}
	}
	return victim
}

// Install claims frame e for line, resetting its state to the zero value
// and marking it most recently used. e must come from Victim for the same
// set as line.
func (a *Array[S]) Install(e *Entry[S], line memaddr.LineAddr) {
	var zero S
	a.tick++
	*e = Entry[S]{Valid: true, Line: line, State: zero, lru: a.tick}
}

// Invalidate releases the frame holding line, if any.
func (a *Array[S]) Invalidate(line memaddr.LineAddr) {
	if e := a.Peek(line); e != nil {
		var zero S
		*e = Entry[S]{State: zero}
	}
}

// ForEach visits every valid entry. The callback must not install or
// invalidate entries.
func (a *Array[S]) ForEach(fn func(e *Entry[S])) {
	for _, s := range a.chunks {
		for i := range s {
			if s[i].Valid {
				fn(&s[i])
			}
		}
	}
}

// InvalidateWhere visits every valid entry and releases those for which fn
// returns true. fn may mutate the entry's state in place, so acquire-flash
// sweeps (downgrade every line, drop the now-empty ones) run in one pass
// without collecting victim lines into a slice first.
func (a *Array[S]) InvalidateWhere(fn func(e *Entry[S]) bool) {
	for _, s := range a.chunks {
		for i := range s {
			if s[i].Valid && fn(&s[i]) {
				var zero S
				s[i] = Entry[S]{State: zero}
			}
		}
	}
}
