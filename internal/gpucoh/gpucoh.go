// Package gpucoh implements the GPU coherence protocol (paper §II-B): a
// simple, high-bandwidth L1 strategy with write-through stores, atomics
// performed at the backing cache, line-granularity self-invalidated reads,
// and no ownership or sharer state. Synchronization acquires flash-
// invalidate the whole cache; releases drain the write buffer.
//
// The controller speaks the Spandex request vocabulary natively (paper
// Table II: Read→ReqV line, Write→ReqWT word, RMW→ReqWT+data word), so the
// same implementation attaches to a Spandex LLC and to the hierarchical
// baseline's intermediate GPU L2. The TU duties the paper assigns to a
// GPU-coherence device — coalescing partial word-granularity responses and
// retrying Nacked ReqVs as ReqWT+data (§III-D) — are folded into the
// controller's miss-handling so both attachments share them; the Spandex
// configurations additionally charge the TU's lookup latency at the shim.
package gpucoh

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

// Config parameterizes a GPU coherence L1.
type Config struct {
	SizeBytes          int
	Ways               int
	MSHREntries        int
	WriteBufferEntries int
	// HitLatency is the L1 hit time.
	HitLatency sim.Time
	// ParentID is the backing cache (Spandex LLC or hierarchical GPU L2).
	ParentID proto.NodeID
	// ParentBanks makes the parent an address-interleaved bank array at
	// NodeIDs ParentID..ParentID+ParentBanks-1; requests go to the target
	// line's home bank. 0 or 1 is the flat single parent.
	ParentBanks int
}

// DefaultConfig returns the paper's Table VI L1 parameters.
func DefaultConfig(parent proto.NodeID) Config {
	return Config{
		SizeBytes: 32 * 1024, Ways: 8,
		MSHREntries: 128, WriteBufferEntries: 128,
		HitLatency: sim.GPUCycle,
		ParentID:   parent,
	}
}

// line is the per-line L1 state: valid words and their data. GPU coherence
// tracks no ownership and no sharers.
type line struct {
	valid memaddr.WordMask
	data  memaddr.LineData
}

type waiter struct {
	word int
	done func(uint32)
}

// pendingAtomic is an outstanding ReqWT+data atomic. On response the word
// is downgraded locally — the RspWT+data value is potentially stale the
// moment it arrives (paper §III-A) — before done fires.
type pendingAtomic struct {
	la   memaddr.LineAddr
	mask memaddr.WordMask
	done func(uint32)
}

// mshrEntry tracks one outstanding line read.
type mshrEntry struct {
	reqID   uint64
	trace   uint64
	want    memaddr.WordMask
	arrived memaddr.WordMask
	// noCache marks words fetched via the Nack-escape ReqWT+data path,
	// whose response data must not be cached (paper §III-A: RspWT+data
	// triggers a downgrade since the data is potentially stale).
	noCache memaddr.WordMask
	// retried marks words whose first ReqV retry has been spent (§III-C3:
	// after one failed retry the request escalates).
	retried memaddr.WordMask
	data    memaddr.LineData
	waiters []waiter
}

// L1 is a GPU coherence L1 cache controller.
type L1 struct {
	ID  proto.NodeID
	eng *sim.Engine
	st  *stats.Stats
	cfg Config

	port noc.Port

	// out is the sendV scratch slot (see sendV).
	out proto.Message

	array *cache.Array[line]
	mshr  *cache.MSHR[mshrEntry]
	wb    *cache.WriteBuffer

	// wtArrived accumulates partial RspWT masks per in-flight line.
	wtArrived map[memaddr.LineAddr]memaddr.WordMask
	wtIssued  map[memaddr.LineAddr]memaddr.WordMask

	// atomics maps outstanding ReqWT+data request IDs to their pending
	// completion. Stored by value so issuing an atomic does not allocate.
	atomics map[uint64]pendingAtomic

	flushWaiters []func()
	reqSeq       uint64

	obs *obs.Recorder
	// curTrace is the trace id of the operation currently inside Access,
	// carried onto the line read (loads) it opens. Write-throughs issue
	// after the store has retired, so ReqWT stays untracked; atomics carry
	// op.Trace directly.
	curTrace uint64

	// Per-access counters, resolved on first increment.
	hits, misses, wbForwards, writeThroughs, atomicOps stats.Handle
}

// SetObserver installs the observability recorder; nil disables
// instrumentation (MSHR occupancy samples and request-trace threading).
func (l *L1) SetObserver(r *obs.Recorder) { l.obs = r }

// mshrOcc samples the MSHR occupancy (caller checks l.obs != nil).
func (l *L1) mshrOcc() {
	l.obs.Emit(obs.Event{At: l.eng.Now(), Kind: obs.EvOccupancy,
		Node: l.ID, Res: "mshr", Arg: uint64(l.mshr.Len())})
}

// New creates a GPU coherence L1. The caller must register it (or its TU
// shim) as the network handler for id and supply the matching port.
func New(id proto.NodeID, eng *sim.Engine, port noc.Port, st *stats.Stats, cfg Config) *L1 {
	return &L1{
		ID: id, eng: eng, st: st, cfg: cfg, port: port,
		array:     cache.NewArray[line](cfg.SizeBytes, cfg.Ways),
		mshr:      cache.NewMSHR[mshrEntry](cfg.MSHREntries),
		wb:        cache.NewWriteBuffer(cfg.WriteBufferEntries),
		wtArrived: make(map[memaddr.LineAddr]memaddr.WordMask),
		wtIssued:  make(map[memaddr.LineAddr]memaddr.WordMask),
		atomics:   make(map[uint64]pendingAtomic),

		hits:          st.Handle("gpul1.hit"),
		misses:        st.Handle("gpul1.miss"),
		wbForwards:    st.Handle("gpul1.wb_fwd"),
		writeThroughs: st.Handle("gpul1.wt"),
		atomicOps:     st.Handle("gpul1.atomic"),
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
		panic(fmt.Sprintf("gpucoh: bad op %v", op.Kind))
	}
}

func (l *L1) load(addr memaddr.Addr, done func(uint32)) bool {
	la, w := addr.Line(), addr.WordIndex()
	// Store-to-load forwarding from the write buffer.
	if v, ok := l.wb.ReadForward(addr); ok {
		l.wbForwards.Inc(1)
		l.eng.ScheduleCall(l.cfg.HitLatency, done, v)
		return true
	}
	if e := l.array.Lookup(la); e != nil && e.State.valid.Has(w) {
		v := e.State.data[w]
		l.hits.Inc(1)
		l.eng.ScheduleCall(l.cfg.HitLatency, done, v)
		return true
	}
	// Miss: line-granularity ReqV (Table II).
	if m := l.mshr.Lookup(la); m != nil {
		if m.arrived.Has(w) {
			v := m.data[w]
			l.eng.ScheduleCall(l.cfg.HitLatency, done, v)
			return true
		}
		m.waiters = append(m.waiters, waiter{word: w, done: done})
		return true
	}
	if l.mshr.Full() {
		l.st.Inc("gpul1.mshr_stall", 1)
		return false
	}
	m := l.mshr.AllocReuse(la)
	*m = mshrEntry{reqID: l.nextReq(), trace: l.curTrace,
		want: memaddr.FullMask, waiters: m.waiters[:0]}
	m.waiters = append(m.waiters, waiter{word: w, done: done})
	l.misses.Inc(1)
	if l.obs != nil {
		l.mshrOcc()
	}
	l.sendV(proto.Message{
		Type: proto.ReqV, Dst: l.parent(la), Requestor: l.ID,
		ReqID: m.reqID, Line: la, Mask: memaddr.FullMask, Trace: m.trace,
	})
	return true
}

func (l *L1) store(addr memaddr.Addr, value uint32, done func(uint32)) bool {
	la := addr.Line()
	e := l.wb.Lookup(la)
	switch {
	case e != nil && !e.Issued:
		l.wb.Put(addr, value)
	case e != nil && e.Issued:
		// One outstanding write-through per line keeps response matching
		// unambiguous; rare in streaming workloads.
		l.st.Inc("gpul1.wb_conflict", 1)
		return false
	case l.wb.Full():
		l.st.Inc("gpul1.wb_stall", 1)
		return false
	default:
		l.wb.Put(addr, value)
		// Lazy drain (paper §II-B: coalescing in the write buffer): issue
		// only under occupancy pressure or at a release flush, so nearby
		// stores to a line merge into one ReqWT.
		l.drainPressure()
	}
	// Keep the local copy coherent with our own stores.
	if ce := l.array.Peek(la); ce != nil {
		ce.State.data[addr.WordIndex()] = value
		ce.State.valid |= addr.WordMaskOf()
	}
	done(0)
	return true
}

// drainPressure issues the oldest buffered lines while occupancy exceeds
// three quarters of capacity.
func (l *L1) drainPressure() {
	for l.wb.UnissuedCount() > l.cfg.WriteBufferEntries*3/4 {
		e := l.wb.NextUnissued()
		if e == nil {
			return
		}
		l.issueWT(e.Line)
	}
}

// issueWT sends the coalesced write-through for a buffered line.
func (l *L1) issueWT(la memaddr.LineAddr) {
	e := l.wb.Lookup(la)
	if e == nil || e.Issued {
		return
	}
	l.wb.MarkIssued(e)
	id := l.nextReq()
	l.wtIssued[la] = e.Mask
	l.wtArrived[la] = 0
	l.sendV(proto.Message{
		Type: proto.ReqWT, Dst: l.parent(la), Requestor: l.ID,
		ReqID: id, Line: la, Mask: e.Mask, HasData: true, Data: e.Data,
	})
	l.writeThroughs.Inc(1)
}

func (l *L1) atomic(op device.Op, done func(uint32)) bool {
	if len(l.atomics) >= l.cfg.MSHREntries {
		return false
	}
	la := op.Addr.Line()
	id := l.nextReq()
	l.atomics[id] = pendingAtomic{la: la, mask: op.Addr.WordMaskOf(), done: done}
	l.sendV(proto.Message{
		Type: proto.ReqWTData, Dst: l.parent(la), Requestor: l.ID,
		ReqID: id, Line: la, Mask: op.Addr.WordMaskOf(),
		Atomic: op.Atomic, Operand: op.Value, Compare: op.Compare,
		Trace: op.Trace,
	})
	l.atomicOps.Inc(1)
	return true
}

// SelfInvalidate implements the acquire flash: every Valid word drops
// (GPU coherence holds nothing but Valid state, so the whole cache clears).
func (l *L1) SelfInvalidate() {
	l.array.InvalidateWhere(func(e *cache.Entry[line]) bool { return true })
	l.st.Inc("gpul1.selfinv", 1)
}

// Flush implements the release drain: done fires once every buffered
// write-through has been acknowledged.
func (l *L1) Flush(done func()) {
	// Push out anything still waiting on its coalescing window.
	for _, e := range l.wb.Unissued() {
		l.issueWT(e.Line)
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

// ProbeOwned implements core.DeviceProbe: GPU coherence never owns.
func (l *L1) ProbeOwned() map[memaddr.LineAddr]memaddr.WordMask { return nil }

// HandleMessage implements noc.Handler.
func (l *L1) HandleMessage(m *proto.Message) {
	switch m.Type {
	case proto.RspV:
		l.fill(m.Line, m.Mask, &m.Data, 0)
	case proto.NackV:
		l.handleNack(m)
	case proto.RspWT:
		l.handleRspWT(m)
	case proto.RspWTData:
		if p, ok := l.atomics[m.ReqID]; ok {
			delete(l.atomics, m.ReqID)
			if ce := l.array.Peek(p.la); ce != nil {
				ce.State.valid &^= p.mask
			}
			w := firstWord(m.Mask)
			p.done(m.Data[w])
			return
		}
		// Nack-escape fill: value usable, word not cacheable.
		l.fill(m.Line, m.Mask, &m.Data, m.Mask)
	case proto.Inv:
		// GPU coherence holds no Shared state; a stray Inv (e.g. a stale
		// sharer record) is acked without state change (paper §III-C3).
		l.array.Invalidate(m.Line)
		l.sendV(proto.Message{Type: proto.InvAck, Dst: m.Src, Line: m.Line, Mask: m.Mask, Trace: m.Trace})
	default:
		panic("gpucoh: unexpected message " + m.Type.String())
	}
}

func firstWord(m memaddr.WordMask) int {
	for i := 0; i < memaddr.WordsPerLine; i++ {
		if m.Has(i) {
			return i
		}
	}
	panic("gpucoh: empty mask")
}

// handleNack retries a Nacked word once as ReqV, then escalates to
// ReqWT+data, which the LLC orders globally (paper §III-C3).
func (l *L1) handleNack(m *proto.Message) {
	e := l.mshr.Lookup(m.Line)
	if e == nil {
		return // request already satisfied via another path
	}
	fresh := m.Mask &^ e.retried &^ e.arrived
	if fresh != 0 {
		e.retried |= fresh
		l.st.Inc("gpul1.nack_retry", 1)
		l.sendV(proto.Message{
			Type: proto.ReqV, Dst: l.parent(m.Line), Requestor: l.ID,
			ReqID: e.reqID, Line: m.Line, Mask: fresh, Trace: e.trace,
		})
	}
	escalate := m.Mask & e.retried &^ e.arrived & ^fresh
	escalate.ForEach(func(i int) {
		l.st.Inc("gpul1.nack_escalate", 1)
		l.sendV(proto.Message{
			Type: proto.ReqWTData, Dst: l.parent(m.Line), Requestor: l.ID,
			ReqID: e.reqID, Line: m.Line, Mask: memaddr.MaskOf(i),
			Atomic: proto.AtomicRead, Trace: e.trace,
		})
	})
}

// fill merges arriving words into the outstanding line read, completes
// waiting loads, and installs the line once every requested word arrived.
func (l *L1) fill(la memaddr.LineAddr, mask memaddr.WordMask, data *memaddr.LineData, noCache memaddr.WordMask) {
	e := l.mshr.Lookup(la)
	if e == nil {
		return // stale response for an entry completed by escalation
	}
	fresh := mask &^ e.arrived
	e.arrived |= fresh
	e.noCache |= noCache & fresh
	e.data.Merge(data, fresh)

	// In-place compaction keeps the slot's waiter capacity alive across
	// Free/AllocReuse cycles (rest aliases e.waiters' backing array).
	rest := e.waiters[:0]
	for _, w := range e.waiters {
		if e.arrived.Has(w.word) {
			v := e.data[w.word]
			l.eng.ScheduleCall(0, w.done, v)
		} else {
			rest = append(rest, w)
		}
	}
	e.waiters = rest

	if e.arrived&e.want != e.want {
		return
	}
	// Complete: install cacheable words.
	cacheable := e.arrived &^ e.noCache
	if cacheable != 0 {
		frame := l.array.Victim(la)
		if frame.Valid {
			// Write-through cache: victims are clean, drop silently.
			l.array.Invalidate(frame.Line)
			frame = l.array.Victim(la)
		}
		l.array.Install(frame, la)
		frame.State.valid = cacheable
		frame.State.data = e.data
		// Our own buffered stores stay visible over the fill.
		if wbe := l.wb.Lookup(la); wbe != nil {
			frame.State.data.Merge(&wbe.Data, wbe.Mask)
			frame.State.valid |= wbe.Mask
		}
	}
	l.mshr.Free(la)
	if l.obs != nil {
		l.mshrOcc()
	}
}

func (l *L1) handleRspWT(m *proto.Message) {
	issued, ok := l.wtIssued[m.Line]
	if !ok {
		return
	}
	l.wtArrived[m.Line] |= m.Mask
	if l.wtArrived[m.Line]&issued != issued {
		return
	}
	delete(l.wtIssued, m.Line)
	delete(l.wtArrived, m.Line)
	l.wb.Complete(m.Line)
	l.checkFlush()
}
