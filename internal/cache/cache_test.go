package cache

import (
	"testing"
	"testing/quick"

	"spandex/internal/memaddr"
)

func line(n uint64) memaddr.LineAddr { return memaddr.LineAddr(n << memaddr.LineShift) }

func TestArrayGeometry(t *testing.T) {
	a := NewArray[int](32*1024, 8)
	if a.Sets() != 64 || a.Ways() != 8 {
		t.Fatalf("geometry %dx%d", a.Sets(), a.Ways())
	}
}

func TestArrayBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-power-of-two sets")
		}
	}()
	NewArray[int](3*memaddr.LineBytes*2, 2) // 3 sets
}

func TestLookupInstall(t *testing.T) {
	a := NewArray[string](4*1024, 4)
	l := line(5)
	if a.Lookup(l) != nil {
		t.Fatal("phantom hit")
	}
	v := a.Victim(l)
	if v == nil || v.Valid {
		t.Fatal("expected an invalid victim frame in empty set")
	}
	a.Install(v, l)
	e := a.Lookup(l)
	if e == nil || e.Line != l {
		t.Fatal("installed line not found")
	}
	e.State = "hello"
	if a.Peek(l).State != "hello" {
		t.Fatal("state lost")
	}
	a.Invalidate(l)
	if a.Lookup(l) != nil {
		t.Fatal("line survived invalidate")
	}
}

func TestLRUReplacement(t *testing.T) {
	a := NewArray[int](2*memaddr.LineBytes, 2) // 1 set, 2 ways
	l0, l1, l2 := line(0), line(1), line(2)
	a.Install(a.Victim(l0), l0)
	a.Install(a.Victim(l1), l1)
	a.Lookup(l0) // l0 now MRU; victim should be l1
	v := a.Victim(l2)
	if !v.Valid || v.Line != l1 {
		t.Fatalf("victim = %+v, want line %#x", v, l1)
	}
	a.Install(v, l2)
	if a.Lookup(l1) != nil || a.Lookup(l0) == nil || a.Lookup(l2) == nil {
		t.Fatal("replacement corrupted set")
	}
}

func TestPeekDoesNotTouchLRU(t *testing.T) {
	a := NewArray[int](2*memaddr.LineBytes, 2)
	l0, l1 := line(0), line(1)
	a.Install(a.Victim(l0), l0)
	a.Install(a.Victim(l1), l1)
	a.Peek(l0) // must NOT refresh l0
	v := a.Victim(line(2))
	if v.Line != l0 {
		t.Fatalf("Peek refreshed LRU: victim %#x", v.Line)
	}
}

func TestArraySetConflictsOnly(t *testing.T) {
	// Lines mapping to different sets never evict each other.
	a := NewArray[int](8*memaddr.LineBytes, 1) // 8 sets, direct mapped
	for i := uint64(0); i < 8; i++ {
		l := line(i)
		a.Install(a.Victim(l), l)
	}
	for i := uint64(0); i < 8; i++ {
		if a.Lookup(line(i)) == nil {
			t.Fatalf("line %d evicted by non-conflicting install", i)
		}
	}
	// line(8) conflicts with line(0) only.
	v := a.Victim(line(8))
	if v.Line != line(0) {
		t.Fatalf("victim %#x, want %#x", v.Line, line(0))
	}
}

func TestMSHR(t *testing.T) {
	type entry struct{ n int }
	m := NewMSHR[entry](2)
	e := m.Alloc(line(1))
	e.n = 42
	if m.Lookup(line(1)).n != 42 {
		t.Fatal("lookup mismatch")
	}
	m.Alloc(line(2))
	if !m.Full() {
		t.Fatal("should be full")
	}
	m.Free(line(1))
	if m.Full() || m.Len() != 1 {
		t.Fatal("free failed")
	}
	if m.Lookup(line(1)) != nil {
		t.Fatal("freed entry still visible")
	}
}

func TestMSHRDuplicatePanics(t *testing.T) {
	m := NewMSHR[int](4)
	m.Alloc(line(1))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate alloc did not panic")
		}
	}()
	m.Alloc(line(1))
}

func TestWriteBufferCoalescing(t *testing.T) {
	w := NewWriteBuffer(4)
	if !w.Put(memaddr.Addr(0x100), 1) {
		t.Fatal("first store should allocate")
	}
	if w.Put(memaddr.Addr(0x104), 2) {
		t.Fatal("same-line store should coalesce")
	}
	if w.Len() != 1 {
		t.Fatalf("len = %d", w.Len())
	}
	e := w.NextUnissued()
	if e.Mask != 0b11 || e.Data[0] != 1 || e.Data[1] != 2 {
		t.Fatalf("entry = %+v", e)
	}
	w.MarkIssued(e)
	if w.UnissuedCount() != 0 {
		t.Fatalf("unissued = %d after MarkIssued", w.UnissuedCount())
	}
	if w.Put(memaddr.Addr(0x108), 3) != true {
		t.Fatal("store to issued entry must allocate a new slot")
	}
	if w.Len() != 2 || w.UnissuedCount() != 1 {
		t.Fatalf("len = %d, unissued = %d", w.Len(), w.UnissuedCount())
	}
}

func TestWriteBufferForwarding(t *testing.T) {
	w := NewWriteBuffer(4)
	w.Put(memaddr.Addr(0x40), 7)
	if v, ok := w.ReadForward(memaddr.Addr(0x40)); !ok || v != 7 {
		t.Fatalf("forward = %d,%v", v, ok)
	}
	if _, ok := w.ReadForward(memaddr.Addr(0x44)); ok {
		t.Fatal("forwarded a word that was never stored")
	}
	w.Complete(memaddr.Addr(0x40).Line())
	if _, ok := w.ReadForward(memaddr.Addr(0x40)); ok {
		t.Fatal("forwarded after completion")
	}
	if !w.Empty() {
		t.Fatal("not empty after complete")
	}
}

func TestWriteBufferFIFOOrder(t *testing.T) {
	w := NewWriteBuffer(8)
	w.Put(memaddr.Addr(0x40), 1)
	w.Put(memaddr.Addr(0x80), 2)
	w.Put(memaddr.Addr(0xc0), 3)
	e := w.NextUnissued()
	if e.Line != memaddr.Addr(0x40).Line() {
		t.Fatal("drain not FIFO")
	}
	w.MarkIssued(e)
	if w.NextUnissued().Line != memaddr.Addr(0x80).Line() {
		t.Fatal("drain not FIFO after issue")
	}
	w.Complete(memaddr.Addr(0x40).Line())
	if w.Len() != 2 {
		t.Fatalf("len = %d", w.Len())
	}
}

// Property: after any sequence of Puts, ReadForward returns exactly the
// last value written to each word that has an entry.
func TestWriteBufferProperty(t *testing.T) {
	f := func(ops []struct {
		Word uint8
		Val  uint32
	}) bool {
		w := NewWriteBuffer(1024)
		want := map[memaddr.Addr]uint32{}
		for _, op := range ops {
			addr := memaddr.Addr(op.Word%64) * 4 // 16 lines' worth of words
			if w.Full() && !w.CanCoalesce(addr) {
				break
			}
			w.Put(addr, op.Val)
			want[addr] = op.Val
		}
		for a, v := range want {
			got, ok := w.ReadForward(a)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestArrayReset checks that a reset array holds no allocated set frames,
// not merely invalid ones, and then evicts like a fresh array: the same
// victims in the same order.
func TestArrayReset(t *testing.T) {
	used, fresh := NewArray[int](4*memaddr.LineBytes, 2), NewArray[int](4*memaddr.LineBytes, 2) // 2 sets
	for i := uint64(0); i < 7; i++ {
		used.Install(used.Victim(line(i)), line(i))
		used.Lookup(line(i / 2))
	}
	used.Reset()
	for i, s := range used.chunks {
		if s != nil {
			t.Fatalf("set %d still has %d frames after Reset", i, len(s))
		}
	}
	if used.tick != 0 {
		t.Fatalf("LRU clock at %d after Reset", used.tick)
	}
	for i := uint64(0); i < 12; i++ {
		l := line(i % 5)
		hit := used.Lookup(l) != nil
		if hit != (fresh.Lookup(l) != nil) {
			t.Fatalf("step %d: reset array hit %v on line %d, fresh array not", i, hit, i%5)
		}
		if hit {
			continue
		}
		u, f := used.Victim(l), fresh.Victim(l)
		if u.Valid != f.Valid || u.Line != f.Line {
			t.Fatalf("step %d: reset array evicts %+v, fresh array %+v", i, *u, *f)
		}
		used.Install(u, l)
		fresh.Install(f, l)
	}
}
