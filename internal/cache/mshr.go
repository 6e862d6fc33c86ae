package cache

import (
	"math/bits"

	"spandex/internal/memaddr"
)

// chunkShift sizes the slot chunks MSHR and WriteBuffer allocate: each
// chunk holds 1<<chunkShift slots. Allocation picks the lowest free slot,
// so a store whose occupancy peaks at n entries allocates only the first
// ceil(n/chunkLen) chunks, however large its capacity.
const (
	chunkShift = 3
	chunkLen   = 1 << chunkShift
)

// slotAt returns slot i of a chunked slot array.
func slotAt[T any](chunks []*[chunkLen]T, i int32) *T {
	return &chunks[i>>chunkShift][i&(chunkLen-1)]
}

// growTo returns slot i, first allocating the chunks up to the one that
// holds it. A chunk never moves once allocated, so a slot pointer stays
// valid for the lifetime of the store.
func growTo[T any](chunks *[]*[chunkLen]T, i int32) *T {
	for int(i>>chunkShift) >= len(*chunks) {
		*chunks = append(*chunks, new([chunkLen]T))
	}
	return slotAt(*chunks, i)
}

// MSHR is a miss-status holding register file: one entry per outstanding
// line transaction, with protocol-specific payload T. Entries live in
// slots allocated in chunks on first use; allocation picks the first free
// slot by a trailing-zero scan over a free bitmap, so the steady state
// allocates nothing and entry pointers stay valid for the entry's
// lifetime (chunks never move).
type MSHR[T any] struct {
	chunks   []*[chunkLen]T
	capacity int
	free     []uint64 // 1 = slot free
	byLine   map[memaddr.LineAddr]int32
}

// NewMSHR creates an MSHR file with the given capacity.
func NewMSHR[T any](capacity int) *MSHR[T] {
	m := &MSHR[T]{
		capacity: capacity,
		free:     make([]uint64, (capacity+63)/64),
		byLine:   make(map[memaddr.LineAddr]int32),
	}
	m.Reset()
	return m
}

// Reset frees every entry, leaving the file as NewMSHR returns it: every
// slot free. The chunks allocated so far stay, for the next allocations.
func (m *MSHR[T]) Reset() {
	clear(m.byLine)
	clear(m.free)
	for i := 0; i < m.capacity; i++ {
		m.free[i>>6] |= 1 << (i & 63)
	}
}

// Full reports whether a new allocation would exceed capacity.
func (m *MSHR[T]) Full() bool { return len(m.byLine) >= m.capacity }

// Len returns the number of live entries.
func (m *MSHR[T]) Len() int { return len(m.byLine) }

// Lookup returns the entry for line, or nil.
func (m *MSHR[T]) Lookup(line memaddr.LineAddr) *T {
	if i, ok := m.byLine[line]; ok {
		return slotAt(m.chunks, i)
	}
	return nil
}

// Alloc returns a zeroed entry for line from the first free slot. It
// panics if the line already has an entry or the file is full; callers
// must check first.
func (m *MSHR[T]) Alloc(line memaddr.LineAddr) *T {
	e := m.AllocReuse(line)
	var zero T
	*e = zero
	return e
}

// AllocReuse is Alloc without the slot zeroing: the returned entry still
// holds whatever the slot's previous occupant left behind. The caller must
// reinitialize every field — typically one struct-literal assignment that
// truncates slice fields to [:0] so their backing arrays are reused:
//
//	r := mshr.AllocReuse(line)
//	*r = entry{id: id, waiters: r.waiters[:0]}
//
// This keeps the per-miss waiter-list allocation out of the steady state.
func (m *MSHR[T]) AllocReuse(line memaddr.LineAddr) *T {
	if m.Full() {
		panic("cache: MSHR overflow")
	}
	if _, ok := m.byLine[line]; ok {
		panic("cache: duplicate MSHR allocation")
	}
	idx := -1
	for w, word := range m.free {
		if word != 0 {
			idx = w<<6 + bits.TrailingZeros64(word)
			break
		}
	}
	m.free[idx>>6] &^= 1 << (idx & 63)
	m.byLine[line] = int32(idx)
	return growTo(&m.chunks, int32(idx))
}

// Free releases the entry for line. The slot may be reused by the next
// Alloc; callers must not retain the entry pointer past this call.
func (m *MSHR[T]) Free(line memaddr.LineAddr) {
	if i, ok := m.byLine[line]; ok {
		delete(m.byLine, line)
		m.free[i>>6] |= 1 << (i & 63)
	}
}
