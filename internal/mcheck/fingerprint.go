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
	"sync"
	"sync/atomic"

	"spandex/internal/memaddr"
	"spandex/internal/proto"
)

// fingerprint.go canonicalizes a world's protocol state into a 64-bit
// structural hash, the memoization key of the DFS. Two worlds reached by
// different interleavings must hash equal iff their protocol-visible state
// is equal, so the walk:
//
//   - drops the simulation scaffolding (engine, network, stats and their
//     counter handles, checker, coverage and observability recorders, the
//     delay queues, which are empty whenever the engine is drained) and
//     every sim.Time-typed field — absolute times differ between
//     interleavings without affecting protocol behaviour;
//   - drops what is identical in every world of a scenario and so cannot
//     tell two states apart: each unit's ID and configuration, the LLC's
//     device registration tables, and the scripted device's identity,
//     script and bound callbacks;
//   - writes each cache set's LRU order as the rank of its valid ways after
//     the set's entries, not the raw access ticks ("lru", "tick"): the
//     ticks count accesses and would split logically equal states, while
//     the order decides the next victim;
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
// A struct is written as its type header and its kept fields in
// declaration order, without field names: the header fixes the fields.
//
// The canonical string is a sequence of root sections: each LLC bank,
// DRAM, the pending pool and each device. The pending pool is assembled
// from per-message records, each message walked alone: per (src, dst)
// FIFO with the pairs sorted under Reduction.Canon (the network only ever
// delivers per-pair heads, so the interleaving of different pairs is
// history residue, not state), in flat send order without. Devices are
// never renamed: two states are equal only when their canonical strings
// are, so each state has one string and one hash.
//
// The walk is compiled: the first value of each reflect.Type met builds
// that type's plan — its header text and field indices, the skip rules
// above resolved once, and the special cases — and every later value of
// the type runs the plan, appending its canonical bytes with strconv into
// a buffer that, like the pointer-visit table, is reused across calls.
// No plan holds an encoder, so one cache serves every explorer of the
// process (planOf).
//
// The walk is also incremental. An action changes only its own unit's
// section and the pending pool: it consumes the head it delivers and
// appends to FIFO tails (reduce.go). A back-reference p@k counts k from
// the first pointer of its own section, so a section's bytes depend on its
// own unit's state alone. So each DFS state keeps its sections and its
// pending messages (stateHash), and a transition walks only the acting
// unit's section and the messages it sent (encoder.transition); the child
// takes everything else from its parent (encoder.child). What a unit does
// next depends only on its section and the action, so the explorer
// memoizes each transition and predicts later occurrences of it without a
// walk. TestEncoderMatchesReference checks the result against a full
// reference walk and checks the premises: one unit per action, a section
// walked alone writing the bytes it writes in place, and every predicted
// record equal to the walked one.
//
// Each walked section and message is hashed once, when it is walked,
// eight bytes per step (sectionHash), and the state hash folds the section
// hashes in section order (stateHash.sum). A 64-bit collision would
// wrongly prune a reachable state; with the tiny state counts mcheck
// explores (≤ millions) the probability is negligible.

// skipTypes are pointer types whose referents are simulation scaffolding,
// not protocol state. A struct field of one is dropped; any other value of
// one is written as nil or non-nil.
var skipTypes = map[string]bool{
	"*sim.Engine":              true,
	"*noc.Network":             true,
	"*noc.DelayQueue":          true,
	"*stats.Stats":             true,
	"*core.Checker":            true,
	"*core.TransitionCoverage": true,
	"*obs.Recorder":            true,
}

// skipFields are struct field names dropped in every struct: the cache
// replacement ticks (cache.Array/Entry), which the LRU rank replaces, and
// each unit's node ID and configuration, fixed per scenario.
var skipFields = map[string]bool{
	"lru":  true,
	"tick": true,
	"ID":   true,
	"cfg":  true,
}

// skipStructFields drops more per-scenario configuration, bit-identical in
// every world of a scenario: the LLC's memory node and device registration
// tables, the MESI TU's LLC routing, and a scripted device's identity,
// script and bound completion callbacks with their operands (cur and
// curIdx are set by each issue and read only by its completion, so the
// script cursor already says what they hold when it matters).
var skipStructFields = map[string]map[string]bool{
	"core.LLC":    {"MemID": true, "devices": true, "devIdx": true, "isMESI": true},
	"core.MESITU": {"llcID": true, "llcBanks": true},
	"mcheck.mdev": {
		"name": true, "ops": true,
		"cur": true, "curIdx": true, "done": true, "flushed": true,
	},
}

// skipField reports whether the walk drops field f of a struct whose
// fields skip (from skipStructFields) names.
func skipField(f reflect.StructField, skip map[string]bool) bool {
	ft := f.Type.String()
	if skipFields[f.Name] || skip[f.Name] || skipTypes[ft] || ft == "sim.Time" || ft == "stats.Handle" ||
		strings.HasPrefix(ft, "sim.Pool[") {
		return true
	}
	// The sendV/l1V scratch slots hold a copy of the last message sent —
	// pure history residue, never read after the Send.
	return (f.Name == "out" || f.Name == "toL1") && ft == "proto.Message"
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
	index int
	plan  *plan
}

// span is one serialized map entry, buf[start:end], awaiting its sort.
type span struct{ start, end int }

// ranked is a slot and the stamp it sorts by: a live write-buffer slot and
// its FIFO seq, or a valid cache way and its LRU tick.
type ranked struct {
	key uint64
	idx int
}

// plans is the process's plan cache, shared by every encoder: no plan
// holds an encoder (every encFn takes one as an argument), so what one
// exploration compiles serves all. A lookup reads the published map
// without a lock, as encIface resolves dynamic types in the middle of a
// walk. A miss compiles under mu into a copy of the map, published once
// every plan in it is complete, so no lookup meets a plan being built.
var plans struct {
	mu        sync.Mutex
	published atomic.Pointer[compiler]
}

// planOf returns t's compiled plan, compiling it, and every plan it
// needs, on first use.
func planOf(t reflect.Type) *plan {
	if p, ok := published()[t]; ok {
		return p
	}
	plans.mu.Lock()
	defer plans.mu.Unlock()
	m := published()
	if p, ok := m[t]; ok {
		return p
	}
	c := make(compiler, len(m)+1)
	for t, p := range m {
		c[t] = p
	}
	p := c.plan(t)
	plans.published.Store(&c)
	return p
}

// published returns the published plans (nil before the first compile).
func published() compiler {
	if m := plans.published.Load(); m != nil {
		return *m
	}
	return nil
}

// compiler is a plan map under construction: the published plans and the
// ones a miss adds.
type compiler map[reflect.Type]*plan

// slabSize is the size of each block the encoder keeps walked bytes in.
const slabSize = 64 << 10

// blockLen is the length of each block carve cuts records from.
const blockLen = 256

// carve returns n zeroed elements cut from the block *blk, starting a new
// block when it is short. Blocks are never reused, so what carve returns
// lives as long as its holders do, as the slab's bytes do.
func carve[T any](blk *[]T, n int) []T {
	if cap(*blk)-len(*blk) < n {
		*blk = make([]T, 0, max(blockLen, n))
	}
	m := len(*blk)
	*blk = (*blk)[:m+n]
	return (*blk)[m : m+n : m+n]
}

// encoder serializes worlds into canonical byte strings and hashes them.
// It is not safe for concurrent use; each explorer owns one.
type encoder struct {
	msg *plan

	buf []byte
	// slab is the block walked sections and messages are kept in: they
	// outlive the walk, shared by the records of later states and by the
	// explorer's transition memo. facts and lines are the blocks each
	// walked section's unit facts are kept in, shared the same way.
	slab  []byte
	facts []unitFacts
	lines []lineFacts
	// visited maps each pointer walked in this pass to its first-visit
	// index. next is the index the next first-visited pointer takes, and
	// secBase the first index of the section being walked: a back-reference
	// p@k names k = index − secBase, counted within its own section.
	visited       map[uintptr]int
	next, secBase int
	// walked counts the canonical bytes the walks of sections and messages
	// have written, for Result.WalkedBytes.
	walked int

	// Scratch reused across calls. spans, ranks and iters are stacks: a
	// nested map pushes its entries above its parent's and pops them when
	// done, and iters holds one map iterator per nesting depth, of which
	// depth are in use.
	spans []span
	tmp   []byte
	ranks []ranked
	iters []*reflect.MapIter
	depth int
	pairs [][2]int64
}

func newEncoder() *encoder {
	return &encoder{
		msg:     planOf(reflect.TypeFor[proto.Message]()),
		visited: make(map[uintptr]int),
	}
}

// section is one root of a canonical string: an LLC bank, DRAM, the
// pending pool or a device, its bytes '|'-terminated, their hash, and the
// facts the explorer reads of its unit (nil for DRAM and the pool).
// Sections are immutable once written, so a child state's record shares
// its parent's.
type section struct {
	b []byte
	h uint64
	f *unitFacts
}

// msgRec is one pending message's record: its canonical bytes, walked
// alone, their hash, and the fields the explorer reads of it: the FIFO it
// waits in, and the line, requestor and type that refine dependence. Node
// IDs are unit indices, as in action.
type msgRec struct {
	b             []byte
	h             uint64
	line          memaddr.LineAddr
	src, dst, req int8
	typ           proto.MsgType
}

// step is one transition as the hash sees it: the acting unit's section
// after the action and the messages the action sent, in send order.
// Everything else in the child state is the parent's.
type step struct {
	sec  section
	sent []msgRec
}

// stateHash is one DFS state's hashing record: its canonical string's
// sections and its pending messages in flat send order, from which the
// pending section is assembled. The explorer keeps one per depth; a child
// reads its parent's while overwriting its own.
type stateHash struct {
	secs []section
	msgs []msgRec
	// arena holds the pending section's bytes, the one section a state
	// always assembles for itself.
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

// root fingerprints w from scratch into f and returns its state hash:
// every unit section is walked, in one pass, with its unit facts, and
// every pending message.
// The walk panics on a pointer met from a section walked earlier in the
// pass: a pointer reachable from two sections would make one section's
// bytes depend on another's, and an action can only link two sections
// through its own unit and a message, which hold no pointers.
func (e *encoder) root(sc *scene, w *world, f *stateHash) uint64 {
	f.secs = make([]section, sc.nbank+2+sc.ndev)
	clear(e.visited)
	e.next = 0
	for pos := range f.secs {
		if pos != sc.nbank+1 {
			f.secs[pos] = e.walkSection(sc, w, pos)
		}
	}
	f.msgs = f.msgs[:0]
	for _, m := range w.pending {
		f.msgs = append(f.msgs, e.walkMsg(m))
	}
	return e.assemble(sc, f)
}

// transition walks what action a changed in w, whose state before a has
// the record parent: the acting unit's section, with its unit facts, and
// the messages a sent, which the network appended behind the ones the
// parent left pending.
func (e *encoder) transition(sc *scene, w *world, parent *stateHash, a action) step {
	clear(e.visited)
	e.next = 0
	s := step{sec: e.walkSection(sc, w, sc.sectionOf(a.unit))}
	kept := len(parent.msgs)
	if !a.issue {
		kept--
	}
	for _, m := range w.pending[kept:] {
		s.sent = append(s.sent, e.walkMsg(m))
	}
	return s
}

// child writes into f the record of the state action a leads to from the
// state of record parent, given a's transition s, and returns its state
// hash. It reads no world: every section but a's unit's is parent's, a
// delivery removes its message from the pool, and s's messages join it at
// the tail.
func (e *encoder) child(sc *scene, f, parent *stateHash, a action, s step) uint64 {
	f.secs = append(f.secs[:0], parent.secs...)
	f.secs[sc.sectionOf(a.unit)] = s.sec
	f.msgs = f.msgs[:0]
	if a.issue {
		f.msgs = append(f.msgs, parent.msgs...)
	} else {
		k := a.flat - sc.ndev
		f.msgs = append(append(f.msgs, parent.msgs[:k]...), parent.msgs[k+1:]...)
	}
	f.msgs = append(f.msgs, s.sent...)
	return e.assemble(sc, f)
}

// assemble writes f's pending section from its message records and
// returns f's state hash. Under Canon the messages are grouped per
// (src, dst) FIFO in send order, pairs sorted: the flat interleaving of
// different pairs is unobservable, as only per-pair heads are ever
// deliverable. Without it they stay in flat send order.
func (e *encoder) assemble(sc *scene, f *stateHash) uint64 {
	b := f.arena[:0]
	if !sc.canon {
		for _, m := range f.msgs {
			b = append(append(b, m.b...), ',')
		}
	} else {
		e.pairs = e.pairs[:0]
		for _, m := range f.msgs {
			key := [2]int64{int64(m.src), int64(m.dst)}
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
			b = strconv.AppendInt(append(b, 'q'), key[0], 10)
			b = strconv.AppendInt(append(b, '>'), key[1], 10)
			b = append(b, '[')
			for _, m := range f.msgs {
				if int64(m.src) == key[0] && int64(m.dst) == key[1] {
					b = append(append(b, m.b...), ',')
				}
			}
			b = append(b, ']')
		}
	}
	b = append(b, '|')
	f.arena = b
	f.secs[sc.nbank+1] = section{b: b, h: sectionHash(b)}
	return f.sum()
}

// walkSection walks w's unit section at position pos, continuing the
// pass's pointer numbering, and returns it, its bytes and its unit facts
// kept.
func (e *encoder) walkSection(sc *scene, w *world, pos int) section {
	e.buf, e.secBase = e.buf[:0], e.next
	e.section(w, pos)
	b := e.keep(e.buf)
	s := section{b: b, h: sectionHash(b)}
	if pos != sc.nbank {
		s.f = e.newFacts(sc, pos)
		w.readFacts(sc, pos, s.f)
	}
	return s
}

// walkMsg walks one pending message and returns its record, its bytes
// kept.
func (e *encoder) walkMsg(m *proto.Message) msgRec {
	e.buf = e.buf[:0]
	e.msg.enc(e, reflect.ValueOf(m).Elem())
	b := e.keep(e.buf)
	return msgRec{b: b, h: sectionHash(b), line: m.Line,
		src: int8(m.Src), dst: int8(m.Dst), req: int8(m.Requestor), typ: m.Type}
}

// newFacts returns zeroed unit facts for the section at position pos,
// with room for the scene lines a bank homes, carved from the encoder's
// blocks.
func (e *encoder) newFacts(sc *scene, pos int) *unitFacts {
	f := &carve(&e.facts, 1)[0]
	if pos < sc.nbank {
		f.lines = carve(&e.lines, len(sc.lines[pos]))
	}
	return f
}

// keep copies walked bytes into the slab and counts them.
func (e *encoder) keep(b []byte) []byte {
	e.walked += len(b)
	if cap(e.slab)-len(e.slab) < len(b) {
		e.slab = make([]byte, 0, max(slabSize, len(b)))
	}
	n := len(e.slab)
	e.slab = append(e.slab, b...)
	return e.slab[n:len(e.slab):len(e.slab)]
}

// section appends the canonical bytes of w's unit section at position
// pos, '|'-terminated: an LLC bank, DRAM or a device. The pending pool is
// assembled, not walked.
func (e *encoder) section(w *world, pos int) {
	nb := len(w.llcs)
	switch {
	case pos < nb:
		e.value(reflect.ValueOf(w.llcs[pos]))
	case pos == nb:
		e.value(reflect.ValueOf(w.mem))
	default:
		e.value(reflect.ValueOf(w.devs[pos-nb-2]))
	}
	e.buf = append(e.buf, '|')
}

func (e *encoder) value(v reflect.Value) { planOf(v.Type()).enc(e, v) }

// plan returns t's plan, building it on first use.
func (c compiler) plan(t reflect.Type) *plan {
	if p, ok := c[t]; ok {
		return p
	}
	p := &plan{iface: "n<" + t.String() + ">"}
	c[t] = p
	p.enc = c.compile(t)
	return p
}

func (c compiler) compile(t reflect.Type) encFn {
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
		return ptrEnc(c.plan(t.Elem()))
	case reflect.Interface:
		return encIface
	case reflect.Slice:
		if strings.HasPrefix(t.Elem().String(), "cache.Entry[") {
			return setEnc(t.Elem(), c.plan(t.Elem()))
		}
		return sliceEnc(c.plan(t.Elem()))
	case reflect.Array:
		switch t.Elem().Kind() {
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			return uintArrayEnc(t.Len())
		}
		return arrayEnc(t.Len(), c.plan(t.Elem()))
	case reflect.Map:
		return mapEnc(c.plan(t.Key()), c.plan(t.Elem()))
	case reflect.Struct:
		if strings.HasPrefix(name, "cache.MSHR[") {
			return c.mshrEnc(t)
		}
		if name == "cache.WriteBuffer" {
			return c.writeBufferEnc(t)
		}
		return c.structEnc(t, name)
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
	p := planOf(elem.Type())
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

// setEnc writes one cache set, a []cache.Entry[S], as a slice followed by
// its LRU rank: 'r' and the way indices of its valid entries from least
// to most recently used. The victim a full set gives up is the first of
// them; the raw ticks are access counts and stay out.
func setEnc(entry reflect.Type, elem *plan) encFn {
	valid, _ := entry.FieldByName("Valid")
	lru, _ := entry.FieldByName("lru")
	vi, li := valid.Index[0], lru.Index[0]
	enc := sliceEnc(elem)
	return func(e *encoder, v reflect.Value) {
		enc(e, v)
		n := v.Len()
		if n == 0 {
			return
		}
		base := len(e.ranks)
		for i := 0; i < n; i++ {
			if ent := v.Index(i); ent.Field(vi).Bool() {
				e.ranks = append(e.ranks, ranked{ent.Field(li).Uint(), i})
			}
		}
		ways := e.ranks[base:]
		slices.SortFunc(ways, func(a, b ranked) int { return cmp.Compare(a.key, b.key) })
		e.buf = append(e.buf, 'r')
		for _, w := range ways {
			e.buf = strconv.AppendInt(e.buf, int64(w.idx), 10)
			e.buf = append(e.buf, ',')
		}
		e.ranks = e.ranks[:base]
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

// uintArrayEnc is arrayEnc for arrays of unsigned words (line data), the
// same bytes in one loop.
func uintArrayEnc(n int) encFn {
	return func(e *encoder, v reflect.Value) {
		e.buf = append(e.buf, "a["...)
		for i := 0; i < n; i++ {
			e.buf = strconv.AppendUint(append(e.buf, 'u'), v.Index(i).Uint(), 10)
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, ']')
	}
}

// mapIter returns the iterator of the next nesting depth, reset to m.
// Every call is paired with a doneIter when the walk of m ends.
func (e *encoder) mapIter(m reflect.Value) *reflect.MapIter {
	if e.depth == len(e.iters) {
		e.iters = append(e.iters, new(reflect.MapIter))
	}
	it := e.iters[e.depth]
	e.depth++
	it.Reset(m)
	return it
}

// doneIter releases the innermost iterator, dropping its map.
func (e *encoder) doneIter() {
	e.depth--
	e.iters[e.depth].Reset(reflect.Value{})
}

func mapEnc(key, val *plan) encFn {
	return func(e *encoder, v reflect.Value) {
		if v.IsNil() {
			e.buf = append(e.buf, "m0"...)
			return
		}
		mark, base := len(e.buf), len(e.spans)
		it := e.mapIter(v)
		for it.Next() {
			start := len(e.buf)
			key.enc(e, it.Key())
			e.buf = append(e.buf, ':')
			val.enc(e, it.Value())
			e.spans = append(e.spans, span{start, len(e.buf)})
		}
		e.doneIter()
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
func (c compiler) mshrEnc(t reflect.Type) encFn {
	byLine, _ := t.FieldByName("byLine")
	chunks, _ := t.FieldByName("chunks")
	st, n := chunkLayout(chunks.Type)
	key, slot := c.plan(byLine.Type.Key()), c.plan(st)
	bi, ci := byLine.Index[0], chunks.Index[0]
	return func(e *encoder, v reflect.Value) {
		cs := v.Field(ci)
		mark, base := len(e.buf), len(e.spans)
		it := e.mapIter(v.Field(bi))
		for it.Next() {
			start := len(e.buf)
			key.enc(e, it.Key())
			e.buf = append(e.buf, ':')
			slot.enc(e, chunkSlot(cs, n, int(it.Value().Int())))
			e.spans = append(e.spans, span{start, len(e.buf)})
		}
		e.doneIter()
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
func (c compiler) writeBufferEnc(t reflect.Type) encFn {
	byLine, _ := t.FieldByName("byLine")
	chunks, _ := t.FieldByName("chunks")
	bi, ci := byLine.Index[0], chunks.Index[0]
	et, n := chunkLayout(chunks.Type)
	seq, _ := et.FieldByName("seq")
	qi := seq.Index[0]
	var fields []fieldPlan
	for i := 0; i < et.NumField(); i++ {
		if i != qi {
			fields = append(fields, fieldPlan{index: i, plan: c.plan(et.Field(i).Type)})
		}
	}
	return func(e *encoder, v reflect.Value) {
		cs := v.Field(ci)
		base := len(e.ranks)
		it := e.mapIter(v.Field(bi))
		for it.Next() {
			idx := int(it.Value().Int())
			e.ranks = append(e.ranks, ranked{chunkSlot(cs, n, idx).Field(qi).Uint(), idx})
		}
		e.doneIter()
		lives := e.ranks[base:]
		slices.SortFunc(lives, func(a, b ranked) int { return cmp.Compare(a.key, b.key) })
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
		e.ranks = e.ranks[:base]
	}
}

func (c compiler) structEnc(t reflect.Type, name string) encFn {
	skip := skipStructFields[name]
	var fields []fieldPlan
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); !skipField(f, skip) {
			fields = append(fields, fieldPlan{index: i, plan: c.plan(f.Type)})
		}
	}
	head := "t<" + name + ">{"
	return func(e *encoder, v reflect.Value) {
		e.buf = append(e.buf, head...)
		for i := range fields {
			f := &fields[i]
			f.plan.enc(e, v.Field(f.index))
			e.buf = append(e.buf, ';')
		}
		e.buf = append(e.buf, '}')
	}
}
