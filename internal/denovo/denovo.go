// Package denovo implements the DeNovo coherence protocol (paper §II-C):
// word-granularity ownership for stores and atomics, self-invalidation of
// Valid (but not Owned) data at acquires, and flexible-granularity reads.
// DeNovo sits between MESI's complexity and GPU coherence's expensive
// synchronization: Owned words survive synchronization, so written and
// atomic data keeps its reuse.
//
// The controller speaks the Spandex vocabulary natively (Table II:
// Read→ReqV word, Write→ReqO word, RMW→ReqO+data word, owned
// replacement→ReqWB word) and handles word-granularity partial responses
// and forwarded requests itself, as the paper notes a DeNovo cache does.
// The one TU duty — escalating a twice-Nacked ReqV to ReqO+data
// (§III-C3) — is folded in here so it also protects the hierarchical
// configuration, where the GPU L2 forwards ReqVs between sibling L1s.
package denovo

import (
	"fmt"

	"spandex/internal/cache"
	"spandex/internal/device"
	"spandex/internal/memaddr"
	"spandex/internal/noc"
	"spandex/internal/obs"
	"spandex/internal/proto"
	"spandex/internal/sim"
	"spandex/internal/stats"
)

// Config parameterizes a DeNovo L1.
type Config struct {
	SizeBytes          int
	Ways               int
	MSHREntries        int
	WriteBufferEntries int
	HitLatency         sim.Time
	ParentID           proto.NodeID
	// ParentBanks makes the parent an address-interleaved bank array at
	// NodeIDs ParentID..ParentID+ParentBanks-1; requests go to the target
	// line's home bank. 0 or 1 is the flat single parent.
	ParentBanks int
	// AtomicsAtLLC sends atomics as ReqWT+data to be performed at the
	// backing cache instead of obtaining ownership. The SDG configuration
	// uses this for CPU caches to match the GPU's strategy and avoid
	// blocking states on inter-device synchronization (paper §IV-A).
	AtomicsAtLLC bool
}

// DefaultConfig returns the paper's Table VI L1 parameters.
func DefaultConfig(parent proto.NodeID, gpuClock bool) Config {
	cyc := sim.CPUCycle
	if gpuClock {
		cyc = sim.GPUCycle
	}
	return Config{
		SizeBytes: 32 * 1024, Ways: 8,
		MSHREntries: 128, WriteBufferEntries: 128,
		HitLatency: cyc,
		ParentID:   parent,
	}
}

// line holds per-word state: valid ⊇ owned, plus data.
type line struct {
	valid memaddr.WordMask
	owned memaddr.WordMask
	data  memaddr.LineData
}

type waiter struct {
	word int
	done func(uint32)
}

// readMiss tracks an outstanding ReqV for a line.
type readMiss struct {
	reqID   uint64
	trace   uint64
	want    memaddr.WordMask
	arrived memaddr.WordMask
	retried memaddr.WordMask
	// escalated words were re-requested as ReqO+data and arrive owned.
	escalated memaddr.WordMask
	ownedGot  memaddr.WordMask
	data      memaddr.LineData
	waiters   []waiter
}

// ownReq tracks an outstanding ReqO (store ownership) for a line.
type ownReq struct {
	reqID   uint64
	issued  memaddr.WordMask
	arrived memaddr.WordMask
	// downgraded words were taken by another device while our grant was
	// in flight (paper §III-C2): they complete without Owned state.
	downgraded memaddr.WordMask
	data       memaddr.LineData
}

// atomicReq tracks an outstanding ReqO+data (or ReqWT+data) for one word.
type atomicReq struct {
	op   device.Op
	done func(uint32)
	// deferred external requests for this word, processed once data
	// arrives (paper §III-C1). Held by value: the queue's backing array
	// is the only allocation, amortized across the atom's lifetime.
	deferred []proto.Message
	// downgradeAfter marks that a deferred external revokes our ownership
	// as soon as the atomic completes.
	atLLC bool
}

// pendingWB is a write-back in flight; data is retained until the RspWB
// arrives (paper §III-A: "up-to-date data must be retained until the
// write-back has completed").
type pendingWB struct {
	mask memaddr.WordMask
	data memaddr.LineData
}

// L1 is a DeNovo L1 cache controller.
type L1 struct {
	ID  proto.NodeID
	eng *sim.Engine
	st  *stats.Stats
	cfg Config

	port noc.Port

	// out is the sendV scratch slot (see sendV).
	out proto.Message

	array *cache.Array[line]
	reads *cache.MSHR[readMiss]
	wb    *cache.WriteBuffer
	owns  map[memaddr.LineAddr]*ownReq
	atoms map[uint64]atomicReq
	// atomByWord finds the pending atomic covering a word for deferral.
	atomByWord map[memaddr.Addr]uint64
	wbs        map[memaddr.LineAddr]*pendingWB

	flushWaiters []func()
	reqSeq       uint64

	// ownPool recycles ownReq records across ownership transactions.
	ownPool sim.Pool[ownReq]

	obs *obs.Recorder
	// curTrace is the trace id of the operation currently inside Access,
	// carried onto the read miss (loads) it opens. Coalesced stores issue
	// their ReqO after the store has retired, so ownership requests stay
	// untracked; atomics carry op.Trace directly.
	curTrace uint64

	// Per-access counters, resolved on first increment.
	hits, misses, storeHits, reqOs, atomicHits, atomicMisses stats.Handle
}

// SetObserver installs the observability recorder; nil disables
// instrumentation (MSHR occupancy samples and request-trace threading).
func (l *L1) SetObserver(r *obs.Recorder) { l.obs = r }

// mshrOcc samples the read-MSHR occupancy (caller checks l.obs != nil).
func (l *L1) mshrOcc() {
	l.obs.Emit(obs.Event{At: l.eng.Now(), Kind: obs.EvOccupancy,
		Node: l.ID, Res: "mshr", Arg: uint64(l.reads.Len())})
}

// New creates a DeNovo L1.
func New(id proto.NodeID, eng *sim.Engine, port noc.Port, st *stats.Stats, cfg Config) *L1 {
	return &L1{
		ID: id, eng: eng, st: st, cfg: cfg, port: port,
		array:      cache.NewArray[line](cfg.SizeBytes, cfg.Ways),
		reads:      cache.NewMSHR[readMiss](cfg.MSHREntries),
		wb:         cache.NewWriteBuffer(cfg.WriteBufferEntries),
		owns:       make(map[memaddr.LineAddr]*ownReq),
		atoms:      make(map[uint64]atomicReq),
		atomByWord: make(map[memaddr.Addr]uint64),
		wbs:        make(map[memaddr.LineAddr]*pendingWB),

		hits:         st.Handle("dnl1.hit"),
		misses:       st.Handle("dnl1.miss"),
		storeHits:    st.Handle("dnl1.store_hit"),
		reqOs:        st.Handle("dnl1.reqo"),
		atomicHits:   st.Handle("dnl1.atomic_hit"),
		atomicMisses: st.Handle("dnl1.atomic_miss"),
	}
}

var _ device.L1Cache = (*L1)(nil)

// sendV transmits a by-value message through the port. Every port Send
// copies the message synchronously before anything downstream can run, so
// a single scratch slot per sender is safe and avoids a heap allocation
// per send (the &proto.Message{...} literal idiom escapes through the
// Port interface).
func (l *L1) sendV(m proto.Message) {
	l.out = m
	l.port.Send(&l.out)
}

// parent returns line's home node: ParentID for a flat parent, the
// line's bank for an interleaved one (see Config.ParentBanks).
func (l *L1) parent(line memaddr.LineAddr) proto.NodeID {
	return proto.HomeOf(l.cfg.ParentID, l.cfg.ParentBanks, line)
}

func (l *L1) nextReq() uint64 {
	l.reqSeq++
	return l.reqSeq
}

// Access implements device.L1Cache.
func (l *L1) Access(op device.Op, done func(uint32)) bool {
	l.curTrace = op.Trace
	switch op.Kind {
	case device.OpLoad:
		return l.load(op.Addr, done)
	case device.OpStore:
		if op.IsSubWordStore() {
			// Byte-granularity stores become word-granularity RMWs so the
			// unmodified bytes stay up-to-date (paper §III-B).
			return l.atomic(op.AsByteMerge(), done)
		}
		return l.store(op.Addr, op.Value, done)
	case device.OpAtomic:
		return l.atomic(op, done)
	default:
		panic(fmt.Sprintf("denovo: bad op %v", op.Kind))
	}
}

func (l *L1) load(addr memaddr.Addr, done func(uint32)) bool {
	la, w := addr.Line(), addr.WordIndex()
	if v, ok := l.wb.ReadForward(addr); ok {
		l.eng.ScheduleCall(l.cfg.HitLatency, done, v)
		return true
	}
	if o := l.owns[la]; o != nil && o.issued.Has(w) {
		v := o.data[w]
		l.eng.ScheduleCall(l.cfg.HitLatency, done, v)
		return true
	}
	if e := l.array.Lookup(la); e != nil && e.State.valid.Has(w) {
		v := e.State.data[w]
		l.hits.Inc(1)
		l.eng.ScheduleCall(l.cfg.HitLatency, done, v)
		return true
	}
	if r := l.reads.Lookup(la); r != nil {
		if r.arrived.Has(w) {
			v := r.data[w]
			l.eng.ScheduleCall(l.cfg.HitLatency, done, v)
			return true
		}
		r.waiters = append(r.waiters, waiter{word: w, done: done})
		if !r.want.Has(w) {
			// Extend the outstanding read (word granularity, Table II).
			r.want |= addr.WordMaskOf()
			l.sendV(proto.Message{
				Type: proto.ReqV, Dst: l.parent(la), Requestor: l.ID,
				ReqID: r.reqID, Line: la, Mask: addr.WordMaskOf(),
				Trace: l.curTrace,
			})
		}
		return true
	}
	if l.reads.Full() {
		l.st.Inc("dnl1.mshr_stall", 1)
		return false
	}
	r := l.reads.AllocReuse(la)
	*r = readMiss{reqID: l.nextReq(), trace: l.curTrace,
		want: addr.WordMaskOf(), waiters: r.waiters[:0]}
	r.waiters = append(r.waiters, waiter{word: w, done: done})
	l.misses.Inc(1)
	if l.obs != nil {
		l.mshrOcc()
	}
	l.sendV(proto.Message{
		Type: proto.ReqV, Dst: l.parent(la), Requestor: l.ID,
		ReqID: r.reqID, Line: la, Mask: addr.WordMaskOf(), Trace: r.trace,
	})
	return true
}

func (l *L1) store(addr memaddr.Addr, value uint32, done func(uint32)) bool {
	la, w := addr.Line(), addr.WordIndex()
	// Store to an already-owned word hits locally (the DeNovo advantage:
	// owned data survives synchronization and keeps its write locality).
	if e := l.array.Lookup(la); e != nil && e.State.owned.Has(w) {
		e.State.data[w] = value
		l.storeHits.Inc(1)
		done(0)
		return true
	}
	if o := l.owns[la]; o != nil {
		if o.issued.Has(w) {
			// Grant in flight for this word: update the in-flight value.
			o.data[w] = value
			done(0)
			return true
		}
		// Another word of a line with an in-flight ReqO: stall briefly to
		// keep one ownership transaction per line outstanding.
		l.st.Inc("dnl1.own_conflict", 1)
		return false
	}
	e := l.wb.Lookup(la)
	switch {
	case e != nil && !e.Issued:
		l.wb.Put(addr, value)
	case l.wb.Full():
		l.st.Inc("dnl1.wb_stall", 1)
		return false
	default:
		l.wb.Put(addr, value)
		// Lazy drain: ownership requests issue under occupancy pressure or
		// at a release flush, so same-line stores coalesce into one
		// multi-word ReqO (paper §II-C).
		l.drainPressure()
	}
	done(0)
	return true
}

// drainPressure issues the oldest buffered lines while the unissued
// population exceeds three quarters of capacity.
func (l *L1) drainPressure() {
	for l.wb.UnissuedCount() > l.cfg.WriteBufferEntries*3/4 {
		e := l.wb.NextUnissued()
		if e == nil {
			return
		}
		l.issueOwn(e.Line)
	}
}

// issueOwn converts a coalesced write-buffer entry into a ReqO.
func (l *L1) issueOwn(la memaddr.LineAddr) {
	e := l.wb.Lookup(la)
	if e == nil || e.Issued {
		return
	}
	l.wb.MarkIssued(e)
	o := l.ownPool.Get()
	*o = ownReq{reqID: l.nextReq(), issued: e.Mask, data: e.Data}
	l.owns[la] = o
	l.reqOs.Inc(1)
	l.sendV(proto.Message{
		Type: proto.ReqO, Dst: l.parent(la), Requestor: l.ID,
		ReqID: o.reqID, Line: la, Mask: e.Mask,
	})
}

func (l *L1) atomic(op device.Op, done func(uint32)) bool {
	la, w := op.Addr.Line(), op.Addr.WordIndex()
	// Owned word: perform the operation locally (paper §II-C) — this is
	// where DeNovo's atomic reuse comes from.
	if !l.cfg.AtomicsAtLLC || op.Atomic == proto.AtomicRead {
		if e := l.array.Lookup(la); e != nil && e.State.owned.Has(w) {
			if _, busy := l.atomByWord[op.Addr]; !busy {
				old := e.State.data[w]
				nv, wrote := op.Atomic.Apply(old, op.Value, op.Compare)
				if wrote {
					e.State.data[w] = nv
				}
				l.atomicHits.Inc(1)
				l.eng.ScheduleCall(l.cfg.HitLatency, done, old)
				return true
			}
		}
	}
	if len(l.atoms) >= l.cfg.MSHREntries {
		return false
	}
	if _, busy := l.atomByWord[op.Addr]; busy {
		// One outstanding atomic per word; serializes naturally.
		return false
	}
	// Atomic updates obtain ownership (Table II: RMW → ReqO+data), unless
	// this cache performs atomics at the LLC (the SDG CPU mode, §IV-A).
	// Atomic *reads* of un-owned words are performed at the LLC instead:
	// acquiring ownership for a synchronization poll would make every
	// spin-waiter steal the flag word and ping-pong it.
	atLLC := l.cfg.AtomicsAtLLC || op.Atomic == proto.AtomicRead
	id := l.nextReq()
	l.atoms[id] = atomicReq{op: op, done: done, atLLC: atLLC}
	l.atomByWord[op.Addr] = id
	typ := proto.ReqOData
	if atLLC {
		typ = proto.ReqWTData
	}
	l.atomicMisses.Inc(1)
	l.sendV(proto.Message{
		Type: typ, Dst: l.parent(la), Requestor: l.ID,
		ReqID: id, Line: la, Mask: op.Addr.WordMaskOf(),
		Atomic: op.Atomic, Operand: op.Value, Compare: op.Compare,
		Trace: op.Trace,
	})
	return true
}

// SelfInvalidateRegion implements DeNovo's regions optimization (paper
// §II-C): software indicates that only [lo, hi) may be stale, so the
// acquire flash drops Valid words in that range only, keeping read reuse
// in the rest of the cache.
func (l *L1) SelfInvalidateRegion(lo, hi memaddr.Addr) {
	l.array.InvalidateWhere(func(e *cache.Entry[line]) bool {
		if memaddr.Addr(e.Line)+memaddr.LineBytes <= lo || memaddr.Addr(e.Line) >= hi {
			return false
		}
		e.State.valid &= e.State.owned
		return e.State.valid == 0 && e.State.owned == 0
	})
	l.st.Inc("dnl1.selfinv_region", 1)
}

var _ device.RegionInvalidator = (*L1)(nil)

// SelfInvalidate drops Valid-but-not-Owned words (the acquire flash).
// Owned words keep both state and data — DeNovo's key reuse property.
func (l *L1) SelfInvalidate() {
	l.array.InvalidateWhere(func(e *cache.Entry[line]) bool {
		e.State.valid &= e.State.owned
		return e.State.valid == 0 && e.State.owned == 0
	})
	l.st.Inc("dnl1.selfinv", 1)
}

// Flush drains the write buffer: every store has obtained ownership (or
// been written through) when done fires.
func (l *L1) Flush(done func()) {
	for _, e := range l.wb.Unissued() {
		l.issueOwn(e.Line)
	}
	if l.wb.Empty() {
		done()
		return
	}
	l.flushWaiters = append(l.flushWaiters, done)
}

func (l *L1) checkFlush() {
	if !l.wb.Empty() {
		return
	}
	ws := l.flushWaiters
	l.flushWaiters = nil
	for _, w := range ws {
		w()
	}
}

// ProbeOwned implements the checker probe.
func (l *L1) ProbeOwned() map[memaddr.LineAddr]memaddr.WordMask {
	out := make(map[memaddr.LineAddr]memaddr.WordMask)
	l.array.ForEach(func(e *cache.Entry[line]) {
		if e.State.owned != 0 {
			out[e.Line] = e.State.owned
		}
	})
	return out
}

// ensureLine returns the array entry for la, allocating (and evicting a
// victim) if needed.
func (l *L1) ensureLine(la memaddr.LineAddr) *cache.Entry[line] {
	if e := l.array.Lookup(la); e != nil {
		return e
	}
	frame := l.array.Victim(la)
	if frame.Valid {
		l.evict(frame)
		frame = l.array.Victim(la)
		if frame.Valid {
			panic("denovo: victim not freed")
		}
	}
	l.array.Install(frame, la)
	return frame
}

// evict releases a victim frame, writing back owned words (Table II:
// Owned Repl → ReqWB word).
func (l *L1) evict(frame *cache.Entry[line]) {
	st := &frame.State
	if st.owned != 0 {
		wb := &pendingWB{mask: st.owned, data: st.data}
		if old, ok := l.wbs[frame.Line]; ok {
			// Merge with an earlier still-unacked write-back.
			old.data.Merge(&st.data, st.owned)
			old.mask |= st.owned
			wb = old
		}
		l.wbs[frame.Line] = wb
		l.st.Inc("dnl1.wb_evict", 1)
		l.sendV(proto.Message{
			Type: proto.ReqWB, Dst: l.parent(frame.Line), Requestor: l.ID,
			ReqID: l.nextReq(), Line: frame.Line, Mask: st.owned,
			HasData: true, Data: st.data,
		})
	}
	l.array.Invalidate(frame.Line)
}
