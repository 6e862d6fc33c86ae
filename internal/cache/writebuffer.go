package cache

import (
	"math/bits"

	"spandex/internal/memaddr"
)

// WBEntry is one coalesced write-buffer slot: pending store data for one
// line. Stores to the same line coalesce into a single slot until the slot
// is issued to the memory system (paper §II-B, §II-C: "writes to the same
// line can be coalesced into a single request in the write buffer").
type WBEntry struct {
	Line   memaddr.LineAddr
	Mask   memaddr.WordMask
	Data   memaddr.LineData
	Issued bool
	// seq is the allocation stamp: FIFO age order among live slots.
	seq uint64
}

// WriteBuffer holds coalescing store entries in slots allocated in chunks
// on first use (see MSHR), with occupancy and unissued bitmaps. Slot
// allocation and the oldest-unissued pick are trailing-zero scans over the
// bitmaps instead of linear walks over a FIFO slice; per-slot sequence
// stamps preserve the FIFO issue order the protocols' message emission
// (and thus the run fingerprint) depends on. The zero value is not usable;
// use NewWriteBuffer.
type WriteBuffer struct {
	chunks   []*[chunkLen]WBEntry
	capacity int
	// occ marks occupied slots; unissuedBits marks occupied slots whose
	// entry has not been issued (occ ⊇ unissuedBits).
	occ          []uint64
	unissuedBits []uint64
	byLine       map[memaddr.LineAddr]int32
	nextSeq      uint64
	count        int
	unissued     int
}

// NewWriteBuffer creates a write buffer holding up to capacity line slots.
func NewWriteBuffer(capacity int) *WriteBuffer {
	return &WriteBuffer{
		capacity:     capacity,
		occ:          make([]uint64, (capacity+63)/64),
		unissuedBits: make([]uint64, (capacity+63)/64),
		byLine:       make(map[memaddr.LineAddr]int32),
	}
}

// Reset empties the buffer, leaving it as NewWriteBuffer returns it, with
// the allocation stamps restarted. The chunks allocated so far stay, for
// the next stores.
func (w *WriteBuffer) Reset() {
	clear(w.occ)
	clear(w.unissuedBits)
	clear(w.byLine)
	w.nextSeq, w.count, w.unissued = 0, 0, 0
}

// Full reports whether a store to a new line would overflow the buffer.
func (w *WriteBuffer) Full() bool { return w.count >= w.capacity }

// Empty reports whether no stores are pending.
func (w *WriteBuffer) Empty() bool { return w.count == 0 }

// Len returns the number of occupied line slots.
func (w *WriteBuffer) Len() int { return w.count }

// Put records a store of value to addr. It coalesces into an existing
// un-issued slot for the same line; otherwise it allocates a new slot
// (panicking if full — callers must check Full for new lines first).
// It reports whether a new slot was allocated.
func (w *WriteBuffer) Put(addr memaddr.Addr, value uint32) bool {
	line := addr.Line()
	if i, ok := w.byLine[line]; ok {
		if e := slotAt(w.chunks, i); !e.Issued {
			e.Mask |= addr.WordMaskOf()
			e.Data[addr.WordIndex()] = value
			return false
		}
	}
	if w.Full() {
		panic("cache: write buffer overflow")
	}
	idx := -1
	for wd, word := range w.occ {
		if free := ^word; free != 0 {
			idx = wd<<6 + bits.TrailingZeros64(free)
			break
		}
	}
	e := growTo(&w.chunks, int32(idx))
	w.nextSeq++
	*e = WBEntry{Line: line, Mask: addr.WordMaskOf(), seq: w.nextSeq}
	e.Data[addr.WordIndex()] = value
	w.occ[idx>>6] |= 1 << (idx & 63)
	w.unissuedBits[idx>>6] |= 1 << (idx & 63)
	w.byLine[line] = int32(idx)
	w.count++
	w.unissued++
	return true
}

// UnissuedCount reports how many entries have not been issued yet.
func (w *WriteBuffer) UnissuedCount() int { return w.unissued }

// MarkIssued transitions an entry to issued state (callers must not set
// the Issued field directly once using pressure-based draining).
func (w *WriteBuffer) MarkIssued(e *WBEntry) {
	if !e.Issued {
		e.Issued = true
		w.unissued--
		i := w.byLine[e.Line]
		w.unissuedBits[i>>6] &^= 1 << (i & 63)
	}
}

// CanCoalesce reports whether a store to addr would coalesce (not needing
// a free slot).
func (w *WriteBuffer) CanCoalesce(addr memaddr.Addr) bool {
	i, ok := w.byLine[addr.Line()]
	return ok && !slotAt(w.chunks, i).Issued
}

// NextUnissued returns the oldest entry not yet issued, or nil. "Oldest"
// is allocation order (the seq stamp), matching the FIFO semantics the
// issue order — and thus the run fingerprint — depends on.
func (w *WriteBuffer) NextUnissued() *WBEntry {
	var best *WBEntry
	for wd, word := range w.unissuedBits {
		for ; word != 0; word &= word - 1 {
			e := slotAt(w.chunks, int32(wd<<6+bits.TrailingZeros64(word)))
			if best == nil || e.seq < best.seq {
				best = e
			}
		}
	}
	return best
}

// Unissued returns every entry not yet issued, in FIFO (allocation) order.
func (w *WriteBuffer) Unissued() []*WBEntry {
	var out []*WBEntry
	for wd, word := range w.unissuedBits {
		for ; word != 0; word &= word - 1 {
			e := slotAt(w.chunks, int32(wd<<6+bits.TrailingZeros64(word)))
			// Insertion sort by seq: slot index order is not age order once
			// slots recycle, and the flush paths that call this are rare.
			pos := len(out)
			for pos > 0 && out[pos-1].seq > e.seq {
				pos--
			}
			out = append(out, nil)
			copy(out[pos+1:], out[pos:])
			out[pos] = e
		}
	}
	return out
}

// Complete removes the slot for line (its write has been acknowledged).
func (w *WriteBuffer) Complete(line memaddr.LineAddr) {
	i, ok := w.byLine[line]
	if !ok {
		return
	}
	if !slotAt(w.chunks, i).Issued {
		w.unissued--
	}
	delete(w.byLine, line)
	w.occ[i>>6] &^= 1 << (i & 63)
	w.unissuedBits[i>>6] &^= 1 << (i & 63)
	w.count--
}

// Lookup returns the slot for line, or nil.
func (w *WriteBuffer) Lookup(line memaddr.LineAddr) *WBEntry {
	if i, ok := w.byLine[line]; ok {
		return slotAt(w.chunks, i)
	}
	return nil
}

// ReadForward returns the buffered value for addr if the buffer holds a
// store to that word (store→load forwarding), preserving read-your-writes
// even while the store is in flight.
func (w *WriteBuffer) ReadForward(addr memaddr.Addr) (uint32, bool) {
	i, ok := w.byLine[addr.Line()]
	if !ok {
		return 0, false
	}
	e := slotAt(w.chunks, i)
	if !e.Mask.Has(addr.WordIndex()) {
		return 0, false
	}
	return e.Data[addr.WordIndex()], true
}
