package cache

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"spandex/internal/memaddr"
)

// The MSHR and WriteBuffer allocate their slots in chunks on first use.
// These tests pin what the protocols rely on: entry pointers stay valid as
// chunks are added, Full() is exact at the configured capacity, freed
// slots are reused lowest first, and both structures behave as a flat
// slot array would.

type payload struct{ n int }

func TestSlotPointersSurviveGrowth(t *testing.T) {
	const capacity = 3*chunkLen + 2
	m := NewMSHR[payload](capacity)
	ptrs := make([]*payload, capacity)
	for i := range ptrs {
		if i%2 == 0 {
			ptrs[i] = m.Alloc(line(uint64(i)))
		} else {
			ptrs[i] = m.AllocReuse(line(uint64(i)))
		}
		ptrs[i].n = 1000 + i
	}
	for i, p := range ptrs {
		if got := m.Lookup(line(uint64(i))); got != p || got.n != 1000+i {
			t.Fatalf("MSHR entry %d moved or changed after the file filled", i)
		}
	}

	w := NewWriteBuffer(capacity)
	wps := make([]*WBEntry, capacity)
	for i := range wps {
		a := memaddr.Addr(line(uint64(i)))
		w.Put(a, uint32(i))
		wps[i] = w.Lookup(a.Line())
	}
	for i, e := range wps {
		a := memaddr.Addr(line(uint64(i)))
		if got := w.Lookup(a.Line()); got != e || e.Line != a.Line() || e.Data[0] != uint32(i) {
			t.Fatalf("write-buffer entry %d moved or changed after the buffer filled", i)
		}
	}
}

func TestSlotStoresFullAtCapacity(t *testing.T) {
	for _, capacity := range []int{1, 7, 128, 130} {
		m := NewMSHR[payload](capacity)
		w := NewWriteBuffer(capacity)
		for i := 0; i < capacity; i++ {
			if m.Full() || w.Full() {
				t.Fatalf("capacity %d: full after %d entries", capacity, i)
			}
			m.Alloc(line(uint64(i)))
			w.Put(memaddr.Addr(line(uint64(i))), 1)
		}
		if !m.Full() || !w.Full() {
			t.Fatalf("capacity %d: not full at capacity (MSHR %v, write buffer %v)", capacity, m.Full(), w.Full())
		}
		if !w.CanCoalesce(memaddr.Addr(line(0)) + 4) {
			t.Fatalf("capacity %d: a full buffer must still coalesce into a live line", capacity)
		}
		m.Free(line(0))
		w.Complete(line(0))
		if m.Full() || w.Full() {
			t.Fatalf("capacity %d: still full after a free", capacity)
		}
	}
}

func TestSlotsReusedLowestFirst(t *testing.T) {
	const n = 2*chunkLen + 4
	freed := []uint64{13, 3, 9} // freed out of order, reused in slot order
	m := NewMSHR[payload](n)
	mp := make([]*payload, n)
	for i := range mp {
		mp[i] = m.Alloc(line(uint64(i)))
	}
	w := NewWriteBuffer(n)
	wp := make([]*WBEntry, n)
	for i := range wp {
		w.Put(memaddr.Addr(line(uint64(i))), 1)
		wp[i] = w.Lookup(line(uint64(i)))
	}
	for _, i := range freed {
		m.Free(line(i))
		w.Complete(line(i))
	}
	for k, i := range []uint64{3, 9, 13} {
		l := line(uint64(n + k))
		if got := m.Alloc(l); got != mp[i] {
			t.Fatalf("MSHR allocation %d did not reuse slot %d", k, i)
		}
		w.Put(memaddr.Addr(l), 1)
		if got := w.Lookup(l); got != wp[i] {
			t.Fatalf("write-buffer allocation %d did not reuse slot %d", k, i)
		}
	}
}

// refSlot is one slot of the flat reference model.
type refSlot struct {
	live   bool
	line   memaddr.LineAddr
	n      int // MSHR payload
	mask   memaddr.WordMask
	data   memaddr.LineData
	issued bool
	seq    uint64
}

// refStore is the flat reference model: capacity slots in one slice,
// lowest-free allocation, linear lookups.
type refStore struct {
	slots   []refSlot
	nextSeq uint64
}

func (r *refStore) find(l memaddr.LineAddr) *refSlot {
	for i := range r.slots {
		if r.slots[i].live && r.slots[i].line == l {
			return &r.slots[i]
		}
	}
	return nil
}

func (r *refStore) alloc(l memaddr.LineAddr) *refSlot {
	for i := range r.slots {
		if !r.slots[i].live {
			r.nextSeq++
			r.slots[i] = refSlot{live: true, line: l, seq: r.nextSeq}
			return &r.slots[i]
		}
	}
	panic("reference model full")
}

func (r *refStore) count(pred func(*refSlot) bool) int {
	n := 0
	for i := range r.slots {
		if r.slots[i].live && pred(&r.slots[i]) {
			n++
		}
	}
	return n
}

// unissued lists the live unissued lines in FIFO order.
func (r *refStore) unissued() []memaddr.LineAddr {
	var live []*refSlot
	for i := range r.slots {
		if s := &r.slots[i]; s.live && !s.issued {
			live = append(live, s)
		}
	}
	slices.SortFunc(live, func(a, b *refSlot) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]memaddr.LineAddr, len(live))
	for i, s := range live {
		out[i] = s.line
	}
	return out
}

func TestMSHRMatchesFlatModel(t *testing.T) {
	for _, capacity := range []int{1, 7, 9, 20, 130} {
		for seed := uint64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(capacity)))
			m := NewMSHR[payload](capacity)
			ref := &refStore{slots: make([]refSlot, capacity)}
			ptrs := map[memaddr.LineAddr]*payload{}
			lines := capacity + 4
			for step := 0; step < 600; step++ {
				l := line(uint64(rng.IntN(lines)))
				where := fmt.Sprintf("capacity %d seed %d step %d", capacity, seed, step)
				if rng.IntN(3) == 0 {
					m.Free(l)
					if s := ref.find(l); s != nil {
						s.live = false
					}
					delete(ptrs, l)
				} else if ref.find(l) == nil && !m.Full() {
					var e *payload
					if rng.IntN(2) == 0 {
						e = m.Alloc(l)
					} else {
						e = m.AllocReuse(l)
					}
					e.n = step
					ref.alloc(l).n = step
					ptrs[l] = e
				}
				live := ref.count(func(*refSlot) bool { return true })
				if m.Len() != live || m.Full() != (live == capacity) {
					t.Fatalf("%s: Len %d Full %v, model holds %d", where, m.Len(), m.Full(), live)
				}
				for k := 0; k < lines; k++ {
					kl := line(uint64(k))
					got, want := m.Lookup(kl), ref.find(kl)
					if (got == nil) != (want == nil) || got != ptrs[kl] || (got != nil && got.n != want.n) {
						t.Fatalf("%s: Lookup(line %d) disagrees with the model", where, k)
					}
				}
			}
		}
	}
}

func TestWriteBufferMatchesFlatModel(t *testing.T) {
	for _, capacity := range []int{1, 7, 9, 20, 130} {
		for seed := uint64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(capacity)))
			w := NewWriteBuffer(capacity)
			ref := &refStore{slots: make([]refSlot, capacity)}
			lines := capacity + 4
			for step := 0; step < 600; step++ {
				l := line(uint64(rng.IntN(lines)))
				where := fmt.Sprintf("capacity %d seed %d step %d", capacity, seed, step)
				switch op := rng.IntN(8); {
				case op < 4: // store
					a := memaddr.Addr(l) + memaddr.Addr(4*rng.IntN(memaddr.WordsPerLine))
					s := ref.find(l)
					// Every protocol stalls a store to a line whose entry is
					// issued, and checks Full before a store to a new line.
					if (s != nil && s.issued) || (s == nil && w.Full()) {
						continue
					}
					allocated := s == nil
					if allocated {
						s = ref.alloc(l)
					}
					v := rng.Uint32()
					s.mask |= a.WordMaskOf()
					s.data[a.WordIndex()] = v
					if got := w.Put(a, v); got != allocated {
						t.Fatalf("%s: Put reported allocation %v, model %v", where, got, allocated)
					}
				case op == 4: // issue the oldest
					e, want := w.NextUnissued(), ref.unissued()
					if (e == nil) != (len(want) == 0) || (e != nil && e.Line != want[0]) {
						t.Fatalf("%s: NextUnissued disagrees with the model", where)
					}
					if e != nil {
						w.MarkIssued(e)
						ref.find(e.Line).issued = true
					}
				case op == 5: // issue one line, as a flush does
					if e := w.Lookup(l); e != nil && !e.Issued {
						w.MarkIssued(e)
						ref.find(l).issued = true
					}
				default: // acknowledge
					w.Complete(l)
					if s := ref.find(l); s != nil {
						s.live = false
					}
				}
				checkWriteBuffer(t, where, w, ref, lines)
			}
		}
	}
}

func checkWriteBuffer(t *testing.T, where string, w *WriteBuffer, ref *refStore, lines int) {
	t.Helper()
	live := ref.count(func(*refSlot) bool { return true })
	unissued := ref.count(func(s *refSlot) bool { return !s.issued })
	if w.Len() != live || w.UnissuedCount() != unissued || w.Full() != (live == len(ref.slots)) || w.Empty() != (live == 0) {
		t.Fatalf("%s: Len %d UnissuedCount %d Full %v, model holds %d (%d unissued)",
			where, w.Len(), w.UnissuedCount(), w.Full(), live, unissued)
	}
	for k := 0; k < lines; k++ {
		kl := line(uint64(k))
		got, want := w.Lookup(kl), ref.find(kl)
		if (got == nil) != (want == nil) {
			t.Fatalf("%s: Lookup(line %d) presence disagrees with the model", where, k)
		}
		if got != nil && (got.Line != want.line || got.Mask != want.mask || got.Data != want.data || got.Issued != want.issued) {
			t.Fatalf("%s: Lookup(line %d) = %+v, model %+v", where, k, *got, *want)
		}
		for wd := 0; wd < memaddr.WordsPerLine; wd++ {
			a := memaddr.Addr(kl) + memaddr.Addr(4*wd)
			v, ok := w.ReadForward(a)
			wantOK := want != nil && want.mask.Has(wd)
			if ok != wantOK || (ok && v != want.data[wd]) {
				t.Fatalf("%s: ReadForward(line %d word %d) = %#x,%v disagrees with the model", where, k, wd, v, ok)
			}
		}
	}
	var got []memaddr.LineAddr
	for _, e := range w.Unissued() {
		got = append(got, e.Line)
	}
	want := ref.unissued()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: Unissued = %v, model %v", where, got, want)
	}
	if e := w.NextUnissued(); (e == nil) != (len(want) == 0) || (e != nil && e.Line != want[0]) {
		t.Fatalf("%s: NextUnissued disagrees with the model", where)
	}
}
