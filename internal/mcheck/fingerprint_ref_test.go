package mcheck

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"

	"spandex/internal/proto"
)

// fingerprint_ref_test.go keeps the reflective fingerprint walk the
// compiled encoder replaced, returning the canonical bytes, as the
// reference the encoder's output is checked against: it formats every
// value with fmt and looks up the skip rules per field, so it is slow but
// plainly follows the rules in fingerprint.go.

type refHasher struct {
	visited map[uintptr]int
	// base is the visit index of the current section's first pointer, the
	// origin its back-references count from; backref records whether the
	// section has written one.
	base    int
	backref bool
}

func (h *refHasher) walk(v reflect.Value, buf *bytes.Buffer) {
	switch v.Kind() {
	case reflect.Invalid:
		buf.WriteString("<inv>")
	case reflect.Bool:
		if v.Bool() {
			buf.WriteByte('T')
		} else {
			buf.WriteByte('F')
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(buf, "i%d", v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		fmt.Fprintf(buf, "u%d", v.Uint())
	case reflect.String:
		fmt.Fprintf(buf, "s%q", v.String())
	case reflect.Func:
		if v.IsNil() {
			buf.WriteString("f0")
		} else {
			buf.WriteString("f1")
		}
	case reflect.Ptr:
		if v.IsNil() {
			buf.WriteString("p0")
			return
		}
		if skipTypes[v.Type().String()] {
			buf.WriteString("p_")
			return
		}
		if idx, ok := h.visited[v.Pointer()]; ok {
			h.backref = true
			fmt.Fprintf(buf, "p@%d", idx-h.base)
			return
		}
		h.visited[v.Pointer()] = len(h.visited)
		buf.WriteString("p{")
		h.walk(v.Elem(), buf)
		buf.WriteByte('}')
	case reflect.Interface:
		if v.IsNil() {
			buf.WriteString("n0")
			return
		}
		elem := v.Elem()
		fmt.Fprintf(buf, "n<%s>", elem.Type().String())
		h.walk(elem, buf)
	case reflect.Slice:
		// nil and empty collapse: a recycled record holds non-nil empty
		// queues ([:0] over the old backing array) where a fresh record
		// holds nil — the same logical state either way.
		if v.Len() == 0 {
			buf.WriteString("l0")
			return
		}
		fmt.Fprintf(buf, "l%d[", v.Len())
		for i := 0; i < v.Len(); i++ {
			h.walk(v.Index(i), buf)
			buf.WriteByte(',')
		}
		buf.WriteByte(']')
		if strings.HasPrefix(v.Type().Elem().String(), "cache.Entry[") {
			writeLRURank(v, buf)
		}
	case reflect.Array:
		buf.WriteString("a[")
		for i := 0; i < v.Len(); i++ {
			h.walk(v.Index(i), buf)
			buf.WriteByte(',')
		}
		buf.WriteByte(']')
	case reflect.Map:
		if v.IsNil() {
			buf.WriteString("m0")
			return
		}
		entries := make([]string, 0, v.Len())
		iter := v.MapRange()
		for iter.Next() {
			var eb bytes.Buffer
			h.walk(iter.Key(), &eb)
			eb.WriteByte(':')
			h.walk(iter.Value(), &eb)
			entries = append(entries, eb.String())
		}
		sort.Strings(entries)
		fmt.Fprintf(buf, "m%d{", len(entries))
		for _, e := range entries {
			buf.WriteString(e)
			buf.WriteByte(';')
		}
		buf.WriteByte('}')
	case reflect.Struct:
		t := v.Type()
		if strings.HasPrefix(t.String(), "cache.MSHR[") {
			h.walkMSHR(v, buf)
			return
		}
		if t.String() == "cache.WriteBuffer" {
			h.walkWriteBuffer(v, buf)
			return
		}
		skip := skipStructFields[t.String()]
		fmt.Fprintf(buf, "t<%s>{", t.String())
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			ft := f.Type.String()
			if skipFields[f.Name] || skip[f.Name] || skipTypes[ft] || ft == "sim.Time" ||
				ft == "stats.Handle" || strings.HasPrefix(ft, "sim.Pool[") {
				continue
			}
			// The sendV/l1V scratch slots hold a copy of the last message
			// sent — pure history residue, never read after the Send.
			if (f.Name == "out" || f.Name == "toL1") && ft == "proto.Message" {
				continue
			}
			h.walk(v.Field(i), buf)
			buf.WriteByte(';')
		}
		buf.WriteByte('}')
	case reflect.Chan, reflect.UnsafePointer, reflect.Complex64, reflect.Complex128,
		reflect.Float32, reflect.Float64:
		panic("mcheck: unhashable kind " + v.Kind().String() + " in protocol state")
	}
}

// writeLRURank writes a cache set's LRU rank: 'r' and the way indices of
// its valid entries, least recently used first, each ','-terminated.
func writeLRURank(set reflect.Value, buf *bytes.Buffer) {
	var ways []int
	for i := 0; i < set.Len(); i++ {
		if set.Index(i).FieldByName("Valid").Bool() {
			ways = append(ways, i)
		}
	}
	lru := func(i int) uint64 { return set.Index(i).FieldByName("lru").Uint() }
	sort.Slice(ways, func(a, b int) bool { return lru(ways[a]) < lru(ways[b]) })
	buf.WriteByte('r')
	for _, i := range ways {
		fmt.Fprintf(buf, "%d,", i)
	}
}

// walkMSHR hashes a cache.MSHR by its live entries, sorted by line. Slot
// indices, the chunks allocated so far, the free bitmap, and stale content
// left in freed slots are allocation-history artifacts: two interleavings
// that reach the same set of outstanding transactions may place them in
// different slots.
func (h *refHasher) walkMSHR(v reflect.Value, buf *bytes.Buffer) {
	byLine := v.FieldByName("byLine")
	chunks := v.FieldByName("chunks")
	entries := make([]string, 0, byLine.Len())
	iter := byLine.MapRange()
	for iter.Next() {
		var eb bytes.Buffer
		h.walk(iter.Key(), &eb)
		eb.WriteByte(':')
		h.walk(refChunkSlot(chunks, int(iter.Value().Int())), &eb)
		entries = append(entries, eb.String())
	}
	sort.Strings(entries)
	fmt.Fprintf(buf, "mshr%d{", len(entries))
	for _, e := range entries {
		buf.WriteString(e)
		buf.WriteByte(';')
	}
	buf.WriteByte('}')
}

// walkWriteBuffer hashes a cache.WriteBuffer by its live entries in FIFO
// (seq) order. Emission order captures the protocol-visible age ordering;
// the raw seq stamps, nextSeq counter, slot indices, allocated chunks and
// occupancy bitmaps all advance with interleaving history without changing
// protocol state.
func (h *refHasher) walkWriteBuffer(v reflect.Value, buf *bytes.Buffer) {
	byLine := v.FieldByName("byLine")
	chunks := v.FieldByName("chunks")
	type live struct {
		seq uint64
		idx int
	}
	lives := make([]live, 0, byLine.Len())
	iter := byLine.MapRange()
	for iter.Next() {
		idx := int(iter.Value().Int())
		lives = append(lives, live{refChunkSlot(chunks, idx).FieldByName("seq").Uint(), idx})
	}
	sort.Slice(lives, func(i, j int) bool { return lives[i].seq < lives[j].seq })
	fmt.Fprintf(buf, "wb%d{", len(lives))
	for _, l := range lives {
		e := refChunkSlot(chunks, l.idx)
		t := e.Type()
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).Name == "seq" {
				continue
			}
			h.walk(e.Field(i), buf)
			buf.WriteByte(';')
		}
		buf.WriteByte('|')
	}
	buf.WriteByte('}')
}

// refChunkSlot returns slot i of an MSHR's or write buffer's chunks field,
// a []*[n]T: element i%n of chunk i/n.
func refChunkSlot(chunks reflect.Value, i int) reflect.Value {
	n := chunks.Index(0).Elem().Len()
	return chunks.Index(i / n).Elem().Index(i % n)
}

// refSection is one root section of the reference string: its bytes, the
// visit index of its first pointer in one walk over the whole string, and
// whether it holds a back-reference.
type refSection struct {
	b       []byte
	base    int
	backref bool
}

// refCanonicalBytes returns w's canonical string as its root sections:
// each LLC bank, DRAM, the pending pool and each device, '|'-terminated,
// each numbering its back-references from its own first pointer. The
// pending pool lists each message's bytes, ','-terminated: under
// Reduction.Canon per (src, dst) FIFO in send order with the pairs sorted,
// since the flat interleaving of different pairs is unobservable (only
// per-pair heads are ever deliverable); without it in flat send order.
func refCanonicalBytes(w *world) []refSection {
	h := &refHasher{visited: make(map[uintptr]int)}
	var secs []refSection
	section := func(walk func(buf *bytes.Buffer)) {
		h.base, h.backref = len(h.visited), false
		var buf bytes.Buffer
		walk(&buf)
		buf.WriteByte('|')
		secs = append(secs, refSection{b: buf.Bytes(), base: h.base, backref: h.backref})
	}
	for _, llc := range w.llcs {
		section(func(buf *bytes.Buffer) { h.walk(reflect.ValueOf(llc), buf) })
	}
	section(func(buf *bytes.Buffer) { h.walk(reflect.ValueOf(w.mem), buf) })

	section(func(buf *bytes.Buffer) {
		msg := func(m *proto.Message) {
			h.walk(reflect.ValueOf(m).Elem(), buf)
			buf.WriteByte(',')
		}
		if !w.sc.canon {
			for _, m := range w.pending {
				msg(m)
			}
			return
		}
		type fifo struct {
			src, dst proto.NodeID
			msgs     []*proto.Message
		}
		var fifos []fifo
		index := make(map[[2]proto.NodeID]int)
		for _, m := range w.pending {
			key := [2]proto.NodeID{m.Src, m.Dst}
			i, ok := index[key]
			if !ok {
				i = len(fifos)
				index[key] = i
				fifos = append(fifos, fifo{src: m.Src, dst: m.Dst})
			}
			fifos[i].msgs = append(fifos[i].msgs, m)
		}
		sort.Slice(fifos, func(i, j int) bool {
			if fifos[i].src != fifos[j].src {
				return fifos[i].src < fifos[j].src
			}
			return fifos[i].dst < fifos[j].dst
		})
		for _, f := range fifos {
			fmt.Fprintf(buf, "q%d>%d[", f.src, f.dst)
			for _, m := range f.msgs {
				msg(m)
			}
			buf.WriteByte(']')
		}
	})

	for _, d := range w.devs {
		section(func(buf *bytes.Buffer) { h.walk(reflect.ValueOf(d), buf) })
	}
	return secs
}
