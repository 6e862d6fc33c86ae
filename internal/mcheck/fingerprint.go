package mcheck

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math/bits"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"spandex/internal/proto"
)

// fingerprint.go canonicalizes a world's protocol state into a 64-bit
// structural hash, the memoization key of the DFS. Two worlds reached by
// different interleavings must hash equal iff their protocol-visible state
// is equal, so the walk:
//
//   - skips the simulation scaffolding (engine, network, stats and their
//     counter handles, checker, coverage recorder) and every sim.Time-typed
//     field — absolute times differ between interleavings without
//     affecting protocol behaviour;
//   - skips cache LRU bookkeeping (field names "lru"/"lastUse"), which
//     counts accesses and would otherwise split logically equal states;
//   - skips per-scenario configuration that is identical in every world of
//     a scenario (the LLC's device registration tables, the scripted
//     device names);
//   - skips sim.Pool fields and collapses nil and empty slices: object
//     pools and recycled backing arrays are allocator state, and which of
//     two logically equal worlds happened to recycle a record is an
//     interleaving-history artifact;
//   - hashes cache.MSHR and cache.WriteBuffer by their live entries only
//     (sorted by line, resp. FIFO seq order): slot indices, allocated
//     chunks, free bitmaps, stale content in freed slots, and raw
//     allocation stamps all differ between interleavings that reach the
//     same protocol state;
//   - hashes pointers by first-visit traversal index, never by address, so
//     aliasing structure is captured but heap layout is not;
//   - hashes func values as nil/non-nil only (completion callbacks; which
//     operation they belong to is captured by the device script cursors);
//   - serializes map entries and sorts them, removing iteration order.
//
// Under Reduction.Canon the pending message pool is serialized per
// (src, dst) FIFO with the pairs sorted, not in flat send order (see
// encoder.hash): the network only ever delivers per-pair heads, so the
// interleaving of different pairs in the flat slice is history residue,
// not state. Devices are never renamed: two states are equal only when
// their canonical strings are, so each state has one string and one hash.
//
// The walk is compiled: the first value of each reflect.Type met builds
// that type's plan — its header text, field indices and "name=" prefixes,
// the skip rules above resolved once, and the special cases — and every
// later value of the type runs the plan, appending its canonical bytes
// with strconv into a buffer that, like the pointer-visit table, is
// reused across calls. Plans are cached per explorer.
//
// The walk is also incremental. The canonical string is a sequence of
// root sections — each LLC bank, DRAM, the pending pool, each device —
// and an action changes only its own unit's section and the pending
// pool's (reduce.go). A back-reference p@k counts k from the first
// pointer of its own section, so a section's bytes depend on its own
// unit's state alone, not on what precedes it. So each DFS state keeps
// its sections (stateHash), and a child walks only those two and takes
// every other section from its parent as it is.
// TestEncoderMatchesReference checks the result against a full reference
// walk and checks both premises: one unit per action, and a section
// walked alone writing the bytes it writes in place.
//
// Each walked section is hashed once, when it is walked, eight bytes per
// step (sectionHash), and the state hash folds the section hashes in
// section order (stateHash.sum). A 64-bit collision would wrongly prune a
// reachable state; with the tiny state counts mcheck explores (≤ millions)
// the probability is negligible.

// skipTypes are pointer types whose referents are simulation scaffolding,
// not protocol state.
var skipTypes = map[string]bool{
	"*sim.Engine":              true,
	"*noc.Network":             true,
	"*stats.Stats":             true,
	"*core.Checker":            true,
	"*core.TransitionCoverage": true,
}

// skipFields are struct field names holding replacement-policy tick
// counters (cache.Array/Entry): pure access counts, irrelevant to
// protocol state.
var skipFields = map[string]bool{
	"lru":  true,
	"tick": true,
}

// skipStructFields drops per-scenario configuration that is bit-identical
// in every world of a scenario, so it cannot tell two states apart and
// hashing it only costs bytes: the LLC's device registration tables, a
// device's display name, and its holds query, a method value bound at
// construction (not data at all).
var skipStructFields = map[string]map[string]bool{
	"core.LLC":    {"devices": true, "devIdx": true, "isMESI": true},
	"mcheck.mdev": {"name": true, "holds": true},
}

// hashK0 and hashK1 are wyhash's first two secret words. Each mix operand
// is xored with one, so that a zero word or a zero running value does not
// zero the product; only an operand equal to the constant itself would.
const (
	hashK0 = 0xa0761d6478bd642f
	hashK1 = 0xe7037ed1a0b428db
)

// mix is wyhash's mixing step: the 128-bit product of a and b, its high
// half xored into its low half.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// sectionHash hashes one section's bytes eight at a time: each
// little-endian word, the last one zero-padded, is mixed into the running
// value, and a last mix takes the length, so that a trailing zero byte
// still changes the hash.
func sectionHash(b []byte) uint64 {
	n := uint64(len(b))
	var h uint64
	for ; len(b) >= 8; b = b[8:] {
		h = mix(h^hashK0, binary.LittleEndian.Uint64(b)^hashK1)
	}
	if len(b) > 0 {
		var w uint64
		for i, c := range b {
			w |= uint64(c) << (8 * i)
		}
		h = mix(h^hashK0, w^hashK1)
	}
	return mix(h^hashK1, n^hashK0)
}

// encFn appends the canonical bytes of v to e.buf.
type encFn func(e *encoder, v reflect.Value)

// plan is one type's compiled encoder. It is registered before its
// encoder is built, so a recursive type compiles to a call through the
// plan rather than recursing forever.
type plan struct {
	enc encFn
	// iface is the header written when a value of this type is the
	// dynamic content of an interface.
	iface string
}

// fieldPlan is one hashed struct field.
type fieldPlan struct {
	index  int
	prefix string // "name="
	plan   *plan
}

// span is one serialized map entry, buf[start:end], awaiting its sort.
type span struct{ start, end int }

// wbLive is a live write-buffer slot and its FIFO stamp.
type wbLive struct {
	seq uint64
	idx int
}

// encoder serializes worlds into canonical byte strings and hashes them.
// It is not safe for concurrent use; each explorer owns one.
type encoder struct {
	plans map[reflect.Type]*plan

	buf []byte
	// visited maps each pointer walked in this pass to its first-visit
	// index. next is the index the next first-visited pointer takes, and
	// secBase the first index of the section being walked: a back-reference
	// p@k names k = index − secBase, counted within its own section.
	visited       map[uintptr]int
	next, secBase int
	// walked counts the canonical bytes hash has written, for
	// Result.WalkedBytes.
	walked int

	// Scratch reused across calls. spans and lives are stacks: a nested
	// map pushes its entries above its parent's and pops them when done.
	spans []span
	tmp   []byte
	lives []wbLive
	pairs [][2]int64
}

func newEncoder() *encoder {
	return &encoder{
		plans:   make(map[reflect.Type]*plan),
		visited: make(map[uintptr]int),
	}
}

// section is one root of a canonical string: an LLC bank, DRAM, the
// pending pool or a device, its bytes '|'-terminated, and their hash.
// Sections are immutable once written, so a child state's record shares
// its parent's.
type section struct {
	b []byte
	h uint64
}

// stateHash is one DFS state's hashing record: its canonical string's
// sections. The explorer keeps one per depth; a child reads its parent's
// while overwriting its own.
type stateHash struct {
	secs []section
	// arena holds the bytes of the sections this state walked.
	arena []byte
}

// sum is the state hash: the section hashes folded in section order.
func (f *stateHash) sum() uint64 {
	var h uint64
	for _, s := range f.secs {
		h = mix(h^hashK0, s.h^hashK1)
	}
	return h
}

// sectionOf returns the position of unit u's section: the LLC banks
// first, then DRAM, the pending pool, and the devices in index order.
func sectionOf(u int8, ndev, nbank int) int {
	if int(u) >= ndev {
		return int(u) - ndev
	}
	return nbank + 2 + int(u)
}

// hash fingerprints w into f and returns the state hash of w's canonical
// string, the sequence of its sections: each LLC bank, DRAM, the pending
// pool (per (src, dst) FIFO with pairs sorted under Canon, in flat send
// order without) and each device.
//
// parent, when non-nil, is the record of the state one action of unit
// earlier, in this world or in a replay of it. An action changes only its
// own unit and the pending pool (reduce.go), and a section's bytes depend
// only on its own unit's state, so every other section, with its hash, is
// taken from the parent. A state with no parent walks every section.
// Either way the bytes and the hash are those of one walk over the whole
// string, provided no pointer is reachable from two sections. The walk
// panics on one met from a section walked earlier in the same pass: the
// root state walks all sections in one pass, and an action can link two
// sections only through its own unit and the pending pool, which are
// walked together.
func (e *encoder) hash(w *world, f, parent *stateHash, unit int8) uint64 {
	nb, nd := len(w.llcs), len(w.devs)
	m := nb + 2 + nd
	f.arena = f.arena[:0]
	if len(f.secs) != m {
		f.secs = make([]section, m)
	}
	touched := -1
	if parent != nil {
		touched = sectionOf(unit, nd, nb)
	}
	clear(e.visited)
	e.next = 0
	for pos := 0; pos < m; pos++ {
		if parent != nil && pos != touched && pos != nb+1 {
			f.secs[pos] = parent.secs[pos]
			continue
		}
		start := len(f.arena)
		e.buf, e.secBase = f.arena, e.next
		e.section(w, pos)
		f.arena = e.buf
		b := f.arena[start:len(f.arena):len(f.arena)]
		f.secs[pos] = section{b: b, h: sectionHash(b)}
		e.walked += len(b)
	}
	return f.sum()
}

// section appends the canonical bytes of w's section at position pos,
// '|'-terminated.
func (e *encoder) section(w *world, pos int) {
	nb := len(w.llcs)
	switch {
	case pos < nb:
		e.value(reflect.ValueOf(w.llcs[pos]))
	case pos == nb:
		e.value(reflect.ValueOf(w.mem))
	case pos == nb+1 && w.sc.canon:
		e.pendingFIFOs(w)
	case pos == nb+1:
		e.value(reflect.ValueOf(&w.pending).Elem())
	default:
		e.value(reflect.ValueOf(w.devs[pos-nb-2]))
	}
	e.buf = append(e.buf, '|')
}

func (e *encoder) value(v reflect.Value) { e.plan(v.Type()).enc(e, v) }

// pendingFIFOs appends the pending pool grouped per (src, dst) FIFO in
// send order, pairs sorted. The flat interleaving of different pairs is
// unobservable: only per-pair heads are ever deliverable.
func (e *encoder) pendingFIFOs(w *world) {
	msg := e.plan(reflect.TypeFor[proto.Message]())
	e.pairs = e.pairs[:0]
	for _, m := range w.pending {
		key := [2]int64{int64(m.Src), int64(m.Dst)}
		if !slices.Contains(e.pairs, key) {
			e.pairs = append(e.pairs, key)
		}
	}
	slices.SortFunc(e.pairs, func(a, b [2]int64) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	for _, key := range e.pairs {
		e.buf = append(e.buf, 'q')
		e.buf = strconv.AppendInt(e.buf, key[0], 10)
		e.buf = append(e.buf, '>')
		e.buf = strconv.AppendInt(e.buf, key[1], 10)
		e.buf = append(e.buf, '[')
		for _, m := range w.pending {
			if int64(m.Src) == key[0] && int64(m.Dst) == key[1] {
				msg.enc(e, reflect.ValueOf(m).Elem())
				e.buf = append(e.buf, ',')
			}
		}
		e.buf = append(e.buf, ']')
	}
}

// plan returns t's compiled plan, building it on first use.
func (e *encoder) plan(t reflect.Type) *plan {
	if p, ok := e.plans[t]; ok {
		return p
	}
	p := &plan{iface: "n<" + t.String() + ">"}
	e.plans[t] = p
	p.enc = e.compile(t)
	return p
}

func (e *encoder) compile(t reflect.Type) encFn {
	name := t.String()
	switch t.Kind() {
	case reflect.Bool:
		return encBool
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return encInt
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return encUint
	case reflect.String:
		return encString
	case reflect.Func:
		return encFunc
	case reflect.Ptr:
		if skipTypes[name] {
			return encSkippedPtr
		}
		return ptrEnc(e.plan(t.Elem()))
	case reflect.Interface:
		return encIface
	case reflect.Slice:
		return sliceEnc(e.plan(t.Elem()))
	case reflect.Array:
		return arrayEnc(t.Len(), e.plan(t.Elem()))
	case reflect.Map:
		return mapEnc(e.plan(t.Key()), e.plan(t.Elem()))
	case reflect.Struct:
		if strings.HasPrefix(name, "cache.MSHR[") {
			return e.mshrEnc(t)
		}
		if name == "cache.WriteBuffer" {
			return e.writeBufferEnc(t)
		}
		return e.structEnc(t, name)
	}
	// Chan, UnsafePointer, Complex and Float: unreachable from protocol
	// state, and a fail-stop if they ever are (a value of the type must
	// actually be walked to panic, as a nil pointer to one never is).
	msg := "mcheck: unhashable kind " + t.Kind().String() + " in protocol state"
	return func(*encoder, reflect.Value) { panic(msg) }
}

func encBool(e *encoder, v reflect.Value) {
	if v.Bool() {
		e.buf = append(e.buf, 'T')
	} else {
		e.buf = append(e.buf, 'F')
	}
}

func encInt(e *encoder, v reflect.Value) {
	e.buf = strconv.AppendInt(append(e.buf, 'i'), v.Int(), 10)
}

func encUint(e *encoder, v reflect.Value) {
	e.buf = strconv.AppendUint(append(e.buf, 'u'), v.Uint(), 10)
}

func encString(e *encoder, v reflect.Value) {
	e.buf = strconv.AppendQuote(append(e.buf, 's'), v.String())
}

func encFunc(e *encoder, v reflect.Value) {
	if v.IsNil() {
		e.buf = append(e.buf, "f0"...)
	} else {
		e.buf = append(e.buf, "f1"...)
	}
}

func encSkippedPtr(e *encoder, v reflect.Value) {
	if v.IsNil() {
		e.buf = append(e.buf, "p0"...)
	} else {
		e.buf = append(e.buf, "p_"...)
	}
}

func ptrEnc(elem *plan) encFn {
	return func(e *encoder, v reflect.Value) {
		if v.IsNil() {
			e.buf = append(e.buf, "p0"...)
			return
		}
		addr := v.Pointer()
		if idx, ok := e.visited[addr]; ok {
			if idx < e.secBase {
				panic("mcheck: a pointer is reachable from two root sections, which cannot be hashed apart")
			}
			e.buf = strconv.AppendInt(append(e.buf, "p@"...), int64(idx-e.secBase), 10)
			return
		}
		e.visited[addr] = e.next
		e.next++
		e.buf = append(e.buf, "p{"...)
		elem.enc(e, v.Elem())
		e.buf = append(e.buf, '}')
	}
}

func encIface(e *encoder, v reflect.Value) {
	if v.IsNil() {
		e.buf = append(e.buf, "n0"...)
		return
	}
	elem := v.Elem()
	p := e.plan(elem.Type())
	e.buf = append(e.buf, p.iface...)
	p.enc(e, elem)
}

// sliceEnc collapses nil and empty: a recycled record holds non-nil empty
// queues ([:0] over the old backing array) where a fresh record holds nil
// — the same logical state either way.
func sliceEnc(elem *plan) encFn {
	return func(e *encoder, v reflect.Value) {
		n := v.Len()
		if n == 0 {
			e.buf = append(e.buf, "l0"...)
			return
		}
		e.buf = strconv.AppendInt(append(e.buf, 'l'), int64(n), 10)
		e.buf = append(e.buf, '[')
		for i := 0; i < n; i++ {
			elem.enc(e, v.Index(i))
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, ']')
	}
}

func arrayEnc(n int, elem *plan) encFn {
	return func(e *encoder, v reflect.Value) {
		e.buf = append(e.buf, "a["...)
		for i := 0; i < n; i++ {
			elem.enc(e, v.Index(i))
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, ']')
	}
}

func mapEnc(key, val *plan) encFn {
	return func(e *encoder, v reflect.Value) {
		if v.IsNil() {
			e.buf = append(e.buf, "m0"...)
			return
		}
		mark, base := len(e.buf), len(e.spans)
		it := v.MapRange()
		for it.Next() {
			start := len(e.buf)
			key.enc(e, it.Key())
			e.buf = append(e.buf, ':')
			val.enc(e, it.Value())
			e.spans = append(e.spans, span{start, len(e.buf)})
		}
		e.emitSorted(mark, base, "m")
	}
}

// emitSorted rewrites the entries serialized since mark (spans[base:]) as
// tag<count>{e1;e2;...} with the entries in byte order.
func (e *encoder) emitSorted(mark, base int, tag string) {
	ents := e.spans[base:]
	e.tmp = append(e.tmp[:0], e.buf[mark:]...)
	tmp := e.tmp
	slices.SortFunc(ents, func(a, b span) int {
		return bytes.Compare(tmp[a.start-mark:a.end-mark], tmp[b.start-mark:b.end-mark])
	})
	e.buf = append(e.buf[:mark], tag...)
	e.buf = strconv.AppendInt(e.buf, int64(len(ents)), 10)
	e.buf = append(e.buf, '{')
	for _, s := range ents {
		e.buf = append(e.buf, tmp[s.start-mark:s.end-mark]...)
		e.buf = append(e.buf, ';')
	}
	e.buf = append(e.buf, '}')
	e.spans = e.spans[:base]
}

// mshrEnc hashes a cache.MSHR by its live entries, sorted by line. Slot
// indices, the chunks allocated so far, the free bitmap, and stale content
// left in freed slots are allocation-history artifacts: two interleavings
// that reach the same set of outstanding transactions may place them in
// different slots.
func (e *encoder) mshrEnc(t reflect.Type) encFn {
	byLine, _ := t.FieldByName("byLine")
	chunks, _ := t.FieldByName("chunks")
	st, n := chunkLayout(chunks.Type)
	key, slot := e.plan(byLine.Type.Key()), e.plan(st)
	bi, ci := byLine.Index[0], chunks.Index[0]
	return func(e *encoder, v reflect.Value) {
		cs := v.Field(ci)
		mark, base := len(e.buf), len(e.spans)
		it := v.Field(bi).MapRange()
		for it.Next() {
			start := len(e.buf)
			key.enc(e, it.Key())
			e.buf = append(e.buf, ':')
			slot.enc(e, chunkSlot(cs, n, int(it.Value().Int())))
			e.spans = append(e.spans, span{start, len(e.buf)})
		}
		e.emitSorted(mark, base, "mshr")
	}
}

// chunkLayout returns the slot type T and chunk length n of an MSHR's or
// write buffer's chunks field, a []*[n]T.
func chunkLayout(chunks reflect.Type) (reflect.Type, int) {
	arr := chunks.Elem().Elem()
	return arr.Elem(), arr.Len()
}

// chunkSlot returns slot i of a chunks field of chunk length n.
func chunkSlot(chunks reflect.Value, n, i int) reflect.Value {
	return chunks.Index(i / n).Elem().Index(i % n)
}

// writeBufferEnc hashes a cache.WriteBuffer by its live entries in FIFO
// (seq) order. Emission order captures the protocol-visible age ordering;
// the raw seq stamps, nextSeq counter, slot indices, allocated chunks and
// occupancy bitmaps all advance with interleaving history without changing
// protocol state.
func (e *encoder) writeBufferEnc(t reflect.Type) encFn {
	byLine, _ := t.FieldByName("byLine")
	chunks, _ := t.FieldByName("chunks")
	bi, ci := byLine.Index[0], chunks.Index[0]
	et, n := chunkLayout(chunks.Type)
	seq, _ := et.FieldByName("seq")
	qi := seq.Index[0]
	var fields []fieldPlan
	for i := 0; i < et.NumField(); i++ {
		if i != qi {
			fields = append(fields, fieldPlan{index: i, plan: e.plan(et.Field(i).Type)})
		}
	}
	return func(e *encoder, v reflect.Value) {
		cs := v.Field(ci)
		base := len(e.lives)
		it := v.Field(bi).MapRange()
		for it.Next() {
			idx := int(it.Value().Int())
			e.lives = append(e.lives, wbLive{chunkSlot(cs, n, idx).Field(qi).Uint(), idx})
		}
		lives := e.lives[base:]
		slices.SortFunc(lives, func(a, b wbLive) int { return cmp.Compare(a.seq, b.seq) })
		e.buf = strconv.AppendInt(append(e.buf, "wb"...), int64(len(lives)), 10)
		e.buf = append(e.buf, '{')
		for _, l := range lives {
			ent := chunkSlot(cs, n, l.idx)
			for _, f := range fields {
				f.plan.enc(e, ent.Field(f.index))
				e.buf = append(e.buf, ';')
			}
			e.buf = append(e.buf, '|')
		}
		e.buf = append(e.buf, '}')
		e.lives = e.lives[:base]
	}
}

func (e *encoder) structEnc(t reflect.Type, name string) encFn {
	skip := skipStructFields[name]
	var fields []fieldPlan
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		ft := f.Type.String()
		if skipFields[f.Name] || skip[f.Name] || ft == "sim.Time" || ft == "stats.Handle" ||
			strings.HasPrefix(ft, "sim.Pool[") {
			continue
		}
		// The sendV/l1V scratch slots hold a copy of the last message
		// sent — pure history residue, never read after the Send.
		if (f.Name == "out" || f.Name == "toL1") && ft == "proto.Message" {
			continue
		}
		fields = append(fields, fieldPlan{index: i, prefix: f.Name + "=", plan: e.plan(f.Type)})
	}
	head := "t<" + name + ">{"
	return func(e *encoder, v reflect.Value) {
		e.buf = append(e.buf, head...)
		for i := range fields {
			f := &fields[i]
			e.buf = append(e.buf, f.prefix...)
			f.plan.enc(e, v.Field(f.index))
			e.buf = append(e.buf, ';')
		}
		e.buf = append(e.buf, '}')
	}
}
