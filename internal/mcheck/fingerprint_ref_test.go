package mcheck

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"

	"spandex/internal/proto"
	"spandex/internal/stats"
)

// fingerprint_ref_test.go keeps the reflective fingerprint walk the
// compiled encoder replaced, unchanged apart from returning the canonical
// bytes, as the reference the encoder's output is checked against: it
// formats every value with fmt and looks up the skip rules per field, so
// it is slow but plainly follows the rules in fingerprint.go.

type refHasher struct {
	visited map[uintptr]int
	// idmap, when non-nil, renames device identities: every proto.NodeID
	// value v with 0 <= v < len(idmap) hashes as idmap[v], the LLC sharer
	// bitset is bit-permuted and per-word owner indices are mapped.
	// Device indices and NodeIDs coincide in mcheck worlds (devices are
	// registered in id order), so one table serves both encodings.
	idmap []int8
}

func (h *refHasher) mapID(id int64) int64 {
	if h.idmap != nil && id >= 0 && id < int64(len(h.idmap)) {
		return int64(h.idmap[id])
	}
	return id
}

func (h *refHasher) walk(v reflect.Value, buf *bytes.Buffer) {
	if h.idmap != nil && v.Type().String() == "proto.NodeID" {
		fmt.Fprintf(buf, "i%d", h.mapID(v.Int()))
		return
	}
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
			fmt.Fprintf(buf, "p@%d", idx)
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
		llcLine := h.idmap != nil && t.String() == "core.llcLine"
		fmt.Fprintf(buf, "t<%s>{", t.String())
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if skipFields[f.Name] || skip[f.Name] || f.Type.String() == "sim.Time" ||
				f.Type.String() == "stats.Handle" || strings.HasPrefix(f.Type.String(), "sim.Pool[") {
				continue
			}
			// The sendV/l1V scratch slots hold a copy of the last message
			// sent — pure history residue, never read after the Send.
			if (f.Name == "out" || f.Name == "toL1") && f.Type.String() == "proto.Message" {
				continue
			}
			buf.WriteString(f.Name)
			buf.WriteByte('=')
			if llcLine && f.Name == "sharers" {
				// Bitset of device indices: permute the device bits.
				old := v.Field(i).Uint()
				var renamed uint64
				for d := 0; d < len(h.idmap); d++ {
					if old&(1<<d) != 0 {
						renamed |= 1 << uint(h.idmap[d])
					}
				}
				renamed |= old &^ (1<<uint(len(h.idmap)) - 1)
				fmt.Fprintf(buf, "u%d", renamed)
				buf.WriteByte(';')
				continue
			}
			if llcLine && f.Name == "owner" {
				// Per-word owner device indices (-1 = none): map each.
				ow := v.Field(i)
				buf.WriteString("a[")
				for w := 0; w < ow.Len(); w++ {
					fmt.Fprintf(buf, "i%d,", h.mapID(ow.Index(w).Int()))
				}
				buf.WriteByte(']')
				buf.WriteByte(';')
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

// refFNV folds a canonical byte string byte by byte with stats.FNVAdd.
func refFNV(b []byte) uint64 {
	out := stats.FNVOffset()
	for _, c := range b {
		out = stats.FNVAdd(out, uint64(c))
	}
	return out
}

// refStructuralBytes canonicalizes the given roots with no device
// renaming — the Reduction.Canon=false representation.
func refStructuralBytes(roots ...interface{}) []byte {
	h := &refHasher{visited: make(map[uintptr]int)}
	var buf bytes.Buffer
	for _, r := range roots {
		h.walk(reflect.ValueOf(r), &buf)
		buf.WriteByte('|')
	}
	return buf.Bytes()
}

// refHashWithPermBytes computes the canonical hash of w under one device renaming:
// idmap[i] is the canonical identity of device i, inv its inverse. The
// pending pool is serialized per renamed (src, dst) FIFO with pairs
// sorted, and devices are walked in canonical order, so two worlds equal
// up to a renaming of interchangeable devices produce identical byte
// strings.
func refHashWithPermBytes(w *world, idmap []int8, inv []int8) []byte {
	h := &refHasher{visited: make(map[uintptr]int), idmap: idmap}
	var buf bytes.Buffer
	for _, llc := range w.llcs {
		h.walk(reflect.ValueOf(llc), &buf)
		buf.WriteByte('|')
	}
	h.walk(reflect.ValueOf(w.mem), &buf)
	buf.WriteByte('|')

	// Pending, grouped per renamed (src, dst) FIFO in send order. The flat
	// interleaving of different pairs is unobservable: only per-pair heads
	// are ever deliverable.
	type fifo struct {
		src, dst int64
		msgs     []*proto.Message
	}
	var fifos []fifo
	index := make(map[[2]int64]int)
	for _, m := range w.pending {
		key := [2]int64{h.mapID(int64(m.Src)), h.mapID(int64(m.Dst))}
		i, ok := index[key]
		if !ok {
			i = len(fifos)
			index[key] = i
			fifos = append(fifos, fifo{src: key[0], dst: key[1]})
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
		fmt.Fprintf(&buf, "q%d>%d[", f.src, f.dst)
		for _, m := range f.msgs {
			h.walk(reflect.ValueOf(m).Elem(), &buf)
			buf.WriteByte(',')
		}
		buf.WriteByte(']')
	}
	buf.WriteByte('|')

	// Devices in canonical order: position j holds the device renamed to j.
	for j := range w.devs {
		h.walk(reflect.ValueOf(w.devs[inv[j]]), &buf)
		buf.WriteByte('|')
	}
	return buf.Bytes()
}
