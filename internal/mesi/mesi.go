// Package mesi implements a line-granularity MESI L1 cache (paper §II-A):
// writer-initiated invalidation, ownership (write-back) caching, and
// read-for-ownership stores. It exploits temporal and spatial locality
// aggressively but pays for it with invalidation traffic, indirection, and
// transient blocking states — the trade-off the paper quantifies.
//
// The controller speaks the MESI-native directory vocabulary (MGetS, MGetM,
// MPutM, MFwd*, MInv, MData*). Under the hierarchical baseline it attaches
// directly to the MESI L3 directory; under a Spandex LLC the per-device
// translation unit (core.MESITU) converts to and from the Spandex
// interface, including word-granularity external requests (paper §III-D).
package mesi

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

// State is a stable MESI state.
type State uint8

const (
	I State = iota
	S
	E
	M
)

func (s State) String() string { return [...]string{"I", "S", "E", "M"}[s] }

// Config parameterizes a MESI L1.
type Config struct {
	SizeBytes          int
	Ways               int
	MSHREntries        int
	StoreBufferEntries int
	HitLatency         sim.Time
	ParentID           proto.NodeID
	// ParentBanks makes the parent an address-interleaved bank array at
	// NodeIDs ParentID..ParentID+ParentBanks-1; requests go to the target
	// line's home bank. 0 or 1 is the flat single parent.
	ParentBanks int
}

// DefaultConfig returns the paper's Table VI CPU L1 parameters.
func DefaultConfig(parent proto.NodeID) Config {
	return Config{
		SizeBytes: 32 * 1024, Ways: 8,
		MSHREntries: 128, StoreBufferEntries: 128,
		HitLatency: sim.CPUCycle,
		ParentID:   parent,
	}
}

type line struct {
	state State
	data  memaddr.LineData
}

type loadWaiter struct {
	word int
	done func(uint32)
}

type atomicCtx struct {
	op   device.Op
	done func(uint32)
}

// missEntry tracks one outstanding line transaction (IS_D / IM_D / SM_D).
type missEntry struct {
	reqID   uint64
	needM   bool
	waiters []loadWaiter
	// applyStores: drain the line's store-buffer entry on grant.
	applyStores bool
	atomics     []atomicCtx
	// deferred forwards that arrived before the grant's data (paper
	// §III-C1 / the MESI TU's "pending O request" case 2).
	deferred []*proto.Message
	// escalate: a store or atomic arrived while a GetS was outstanding;
	// a GetM follows the read grant before the entry completes.
	escalate bool
	// trace is the observability request id of the operation that opened
	// the entry, stamped on the entry's directory requests.
	trace uint64
}

// pendingWB retains an evicted line until the directory acks (races are
// answered from this record, §III-D case 3).
type pendingWB struct {
	data  memaddr.LineData
	dirty bool
}

// L1 is a MESI L1 cache controller.
type L1 struct {
	ID  proto.NodeID
	eng *sim.Engine
	st  *stats.Stats
	cfg Config

	port noc.Port

	// out is the sendV scratch slot (see sendV).
	out proto.Message

	array *cache.Array[line]
	miss  *cache.MSHR[missEntry]
	sb    *cache.WriteBuffer
	wbs   map[memaddr.LineAddr]*pendingWB

	flushWaiters []func()
	reqSeq       uint64

	obs *obs.Recorder
	// curTrace is the trace id of the operation currently inside Access,
	// copied into any MSHR entry that operation opens.
	curTrace uint64

	// Per-access counters, resolved on first increment.
	hits, misses, storeHits, getMs, atomicHits, atomicMisses stats.Handle
}

// SetObserver installs the observability recorder; nil disables
// instrumentation (MSHR occupancy samples and request-trace threading).
func (l *L1) SetObserver(r *obs.Recorder) { l.obs = r }

// mshrOcc samples the MSHR occupancy (caller checks l.obs != nil).
func (l *L1) mshrOcc() {
	l.obs.Emit(obs.Event{At: l.eng.Now(), Kind: obs.EvOccupancy,
		Node: l.ID, Res: "mshr", Arg: uint64(l.miss.Len())})
}

// New creates a MESI L1.
func New(id proto.NodeID, eng *sim.Engine, port noc.Port, st *stats.Stats, cfg Config) *L1 {
	return &L1{
		ID: id, eng: eng, st: st, cfg: cfg, port: port,
		array: cache.NewArray[line](cfg.SizeBytes, cfg.Ways),
		miss:  cache.NewMSHR[missEntry](cfg.MSHREntries),
		sb:    cache.NewWriteBuffer(cfg.StoreBufferEntries),
		wbs:   make(map[memaddr.LineAddr]*pendingWB),

		hits:         st.Handle("mesil1.hit"),
		misses:       st.Handle("mesil1.miss"),
		storeHits:    st.Handle("mesil1.store_hit"),
		getMs:        st.Handle("mesil1.getm"),
		atomicHits:   st.Handle("mesil1.atomic_hit"),
		atomicMisses: st.Handle("mesil1.atomic_miss"),
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
		panic(fmt.Sprintf("mesi: bad op %v", op.Kind))
	}
}

func (l *L1) load(addr memaddr.Addr, done func(uint32)) bool {
	la, w := addr.Line(), addr.WordIndex()
	if v, ok := l.sb.ReadForward(addr); ok {
		l.eng.ScheduleCall(l.cfg.HitLatency, done, v)
		return true
	}
	if e := l.array.Lookup(la); e != nil && e.State.state != I {
		v := e.State.data[w]
		l.hits.Inc(1)
		l.eng.ScheduleCall(l.cfg.HitLatency, done, v)
		return true
	}
	if me := l.miss.Lookup(la); me != nil {
		me.waiters = append(me.waiters, loadWaiter{word: w, done: done})
		return true
	}
	if l.miss.Full() {
		l.st.Inc("mesil1.mshr_stall", 1)
		return false
	}
	me := l.miss.AllocReuse(la)
	*me = missEntry{reqID: l.nextReq(), trace: l.curTrace,
		waiters: me.waiters[:0], atomics: me.atomics[:0], deferred: me.deferred[:0]}
	me.waiters = append(me.waiters, loadWaiter{word: w, done: done})
	l.misses.Inc(1)
	if l.obs != nil {
		l.mshrOcc()
	}
	l.sendV(proto.Message{
		Type: proto.MGetS, Dst: l.parent(la), Requestor: l.ID,
		ReqID: me.reqID, Line: la, Mask: memaddr.FullMask, Trace: me.trace,
	})
	return true
}

func (l *L1) store(addr memaddr.Addr, value uint32, done func(uint32)) bool {
	la := addr.Line()
	e := l.sb.Lookup(la)
	switch {
	case e != nil && !e.Issued:
		l.sb.Put(addr, value)
	case e != nil && e.Issued:
		l.st.Inc("mesil1.sb_conflict", 1)
		return false
	case l.sb.Full():
		l.st.Inc("mesil1.sb_stall", 1)
		return false
	default:
		l.sb.Put(addr, value)
		// Lazy drain: retire under occupancy pressure or at a release.
		l.drainPressure()
	}
	done(0)
	return true
}

// drainPressure retires the oldest buffered stores while the unissued
// population exceeds three quarters of capacity.
func (l *L1) drainPressure() {
	for l.sb.UnissuedCount() > l.cfg.StoreBufferEntries*3/4 {
		e := l.sb.NextUnissued()
		if e == nil {
			return
		}
		l.drainStore(e.Line)
	}
}

// drainStore retires a store-buffer entry: write hits in M/E commit
// immediately; otherwise read-for-ownership (GetM) is required.
func (l *L1) drainStore(la memaddr.LineAddr) {
	sbe := l.sb.Lookup(la)
	if sbe == nil || sbe.Issued {
		return
	}
	if e := l.array.Lookup(la); e != nil && (e.State.state == M || e.State.state == E) {
		e.State.state = M
		e.State.data.Merge(&sbe.Data, sbe.Mask)
		l.sb.Complete(la)
		l.storeHits.Inc(1)
		l.checkFlush()
		return
	}
	l.sb.MarkIssued(sbe)
	if me := l.miss.Lookup(la); me != nil {
		if !me.needM {
			// A GetS is already outstanding; escalate once it returns.
			me.needM = true
			me.escalate = true
		}
		me.applyStores = true
		return
	}
	l.requestM(la, func(me *missEntry) { me.applyStores = true })
}

func (l *L1) requestM(la memaddr.LineAddr, setup func(*missEntry)) {
	me := l.miss.AllocReuse(la)
	*me = missEntry{reqID: l.nextReq(), trace: l.curTrace, needM: true,
		waiters: me.waiters[:0], atomics: me.atomics[:0], deferred: me.deferred[:0]}
	setup(me)
	l.getMs.Inc(1)
	if l.obs != nil {
		l.mshrOcc()
	}
	l.sendV(proto.Message{
		Type: proto.MGetM, Dst: l.parent(la), Requestor: l.ID,
		ReqID: me.reqID, Line: la, Mask: memaddr.FullMask, Trace: me.trace,
	})
}

func (l *L1) atomic(op device.Op, done func(uint32)) bool {
	la, w := op.Addr.Line(), op.Addr.WordIndex()
	if e := l.array.Lookup(la); e != nil && (e.State.state == M || e.State.state == E) {
		e.State.state = M
		old := e.State.data[w]
		nv, wrote := op.Atomic.Apply(old, op.Value, op.Compare)
		if wrote {
			e.State.data[w] = nv
		}
		l.atomicHits.Inc(1)
		l.eng.ScheduleCall(l.cfg.HitLatency, done, old)
		return true
	}
	if me := l.miss.Lookup(la); me != nil {
		if !me.needM {
			me.needM = true
			me.escalate = true
		}
		me.atomics = append(me.atomics, atomicCtx{op: op, done: done})
		return true
	}
	if l.miss.Full() {
		return false
	}
	l.atomicMisses.Inc(1)
	l.requestM(la, func(me *missEntry) {
		me.atomics = append(me.atomics, atomicCtx{op: op, done: done})
	})
	return true
}

// SelfInvalidate is a no-op: MESI relies on writer-initiated invalidation,
// so synchronization does not flash the cache (paper §II-A, footnote 2).
func (l *L1) SelfInvalidate() {}

// Flush drains the store buffer (release semantics).
func (l *L1) Flush(done func()) {
	for _, e := range l.sb.Unissued() {
		l.drainStore(e.Line)
	}
	if l.sb.Empty() {
		done()
		return
	}
	l.flushWaiters = append(l.flushWaiters, done)
}

func (l *L1) checkFlush() {
	if !l.sb.Empty() {
		return
	}
	ws := l.flushWaiters
	l.flushWaiters = nil
	for _, w := range ws {
		w()
	}
}

// ProbeOwned reports M/E lines as fully-owned (their Spandex mapping,
// paper §III-D: "M and E both map to O state").
func (l *L1) ProbeOwned() map[memaddr.LineAddr]memaddr.WordMask {
	out := make(map[memaddr.LineAddr]memaddr.WordMask)
	l.array.ForEach(func(e *cache.Entry[line]) {
		if e.State.state == M || e.State.state == E {
			out[e.Line] = memaddr.FullMask
		}
	})
	return out
}

// State returns the MESI state of a line (probe; no LRU effect).
func (l *L1) State(la memaddr.LineAddr) State {
	if e := l.array.Peek(la); e != nil {
		return e.State.state
	}
	return I
}

// PeekLine returns the line's current data and state without any state or
// LRU effect. The translation unit uses it to answer forwarded ReqVs,
// which affect no coherence state at the owning core (paper §III-C3).
func (l *L1) PeekLine(la memaddr.LineAddr) (memaddr.LineData, State) {
	if e := l.array.Peek(la); e != nil {
		return e.State.data, e.State.state
	}
	return memaddr.LineData{}, I
}

// ensureFrame allocates a frame for la, evicting as needed.
func (l *L1) ensureFrame(la memaddr.LineAddr) *cache.Entry[line] {
	if e := l.array.Lookup(la); e != nil {
		return e
	}
	frame := l.array.Victim(la)
	if frame.Valid {
		l.evict(frame)
		frame = l.array.Victim(la)
		if frame.Valid {
			panic("mesi: victim not freed")
		}
	}
	l.array.Install(frame, la)
	return frame
}

// evict releases a victim: M lines write back dirty data, E lines announce
// the clean eviction (so the directory can drop the owner record), S lines
// drop silently.
func (l *L1) evict(frame *cache.Entry[line]) {
	st := frame.State
	la := frame.Line
	switch st.state {
	case M, E:
		l.wbs[la] = &pendingWB{data: st.data, dirty: st.state == M}
		l.st.Inc("mesil1.wb_evict", 1)
		l.sendV(proto.Message{
			Type: proto.MPutM, Dst: l.parent(la), Requestor: l.ID,
			ReqID: l.nextReq(), Line: la, Mask: memaddr.FullMask,
			HasData: true, Data: st.data,
		})
	case S:
		l.st.Inc("mesil1.s_evict", 1)
	default:
		panic("mesi: evicting a frame in state " + st.state.String())
	}
	l.array.Invalidate(la)
}
