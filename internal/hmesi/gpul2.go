package hmesi

import (
	"fmt"

	"spandex/internal/cache"
	"spandex/internal/memaddr"
	"spandex/internal/mesi"
	"spandex/internal/noc"
	"spandex/internal/proto"
	"spandex/internal/sim"
	"spandex/internal/stats"
)

// l2Line is the GPU L2's per-line state: a MESI state toward the L3 plus a
// word-granularity mini-directory for DeNovo child ownership.
type l2Line struct {
	state      mesi.State
	childMask  memaddr.WordMask
	childOwner [memaddr.WordsPerLine]int8
	data       memaddr.LineData
}

type l2TxnKind uint8

const (
	l2Fetch l2TxnKind = iota // MGetS/MGetM outstanding to the L3
	l2Rvk                    // revoking child owners
	l2Evict
)

type l2Txn struct {
	kind    l2TxnKind
	line    memaddr.LineAddr
	waiting []proto.Message

	// fetch state
	wantM       bool
	wasS        bool
	invalidated bool
	// deferred L3 forwards that arrived while the grant was in flight.
	deferred []proto.Message

	// revocation state
	rvkMask memaddr.WordMask
	after   func()
	// rvkID stamps this revocation's RvkO probes so a child's late
	// RspRvkO from an earlier, already-resolved revocation of the same
	// line (raced by its ReqWB) cannot corrupt a newer epoch.
	rvkID uint64

	origin *proto.Message
	resume func()
}

// L2Config parameterizes the intermediate GPU L2.
type L2Config struct {
	SizeBytes     int
	Ways          int
	AccessLatency sim.Time
	ParentID      proto.NodeID
}

// GPUL2 is the hierarchical baseline's intermediate GPU cache: it speaks
// the Spandex request vocabulary to the GPU L1s beneath it (GPU coherence
// or DeNovo) and behaves as one large MESI client toward the L3 directory.
// GPU atomics are performed here — the GPU's "backing cache" (paper §II-B)
// — which forces a full MESI ownership round-trip through the L3 whenever
// CPU and GPU synchronize: the hierarchical indirection cost the paper
// measures.
type GPUL2 struct {
	ID  proto.NodeID
	eng *sim.Engine
	net *noc.Network
	st  *stats.Stats
	cfg L2Config

	array *cache.Array[l2Line]
	txns  map[memaddr.LineAddr]*l2Txn
	wbs   map[memaddr.LineAddr]*pendingL2WB

	children []proto.NodeID
	childIdx map[proto.NodeID]int

	reqSeq uint64

	// out is the sendV scratch slot (see sendV).
	out proto.Message

	// txnPool recycles completed l2Txns; their waiting/deferred backing
	// arrays survive the round trip, so blocking a line allocates nothing
	// in the steady state.
	txnPool sim.Pool[l2Txn]

	// dispq defers each delivered message by AccessLatency into dispatch
	// (pooled; see noc.DelayQueue).
	dispq *noc.DelayQueue
}

// newTxn returns a reset pooled transaction registered for line. The
// waiting/deferred queues keep their previous backing arrays (truncated).
func (l *GPUL2) newTxn(kind l2TxnKind, line memaddr.LineAddr) *l2Txn {
	t := l.txnPool.Get()
	*t = l2Txn{kind: kind, line: line,
		waiting: t.waiting[:0], deferred: t.deferred[:0]}
	return t
}

// freeTxn recycles a completed transaction. The caller must be done with
// the waiting/deferred contents (drain and any deferred replay finished);
// touching t afterwards is a use-after-free.
func (l *GPUL2) freeTxn(t *l2Txn) { l.txnPool.Put(t) }

type pendingL2WB struct {
	data  memaddr.LineData
	dirty bool
}

// NewGPUL2 creates the intermediate cache endpoint.
func NewGPUL2(id proto.NodeID, eng *sim.Engine, net *noc.Network, st *stats.Stats, cfg L2Config) *GPUL2 {
	l := &GPUL2{
		ID: id, eng: eng, net: net, st: st, cfg: cfg,
		array:    cache.NewArray[l2Line](cfg.SizeBytes, cfg.Ways),
		txns:     make(map[memaddr.LineAddr]*l2Txn),
		wbs:      make(map[memaddr.LineAddr]*pendingL2WB),
		childIdx: make(map[proto.NodeID]int),
	}
	l.dispq = noc.NewDelayQueue(eng, cfg.AccessLatency, l.dispatch)
	net.Register(id, l)
	return l
}

// RegisterChild declares a GPU L1 beneath this L2.
func (l *GPUL2) RegisterChild(id proto.NodeID) {
	if _, ok := l.childIdx[id]; ok {
		panic("hmesi: child registered twice")
	}
	l.childIdx[id] = len(l.children)
	l.children = append(l.children, id)
}

func (l *GPUL2) child(id proto.NodeID) int {
	i, ok := l.childIdx[id]
	if !ok {
		panic(fmt.Sprintf("hmesi: unregistered child %d", id))
	}
	return i
}

func (l *GPUL2) nextReq() uint64 {
	l.reqSeq++
	return l.reqSeq
}

func (l *GPUL2) send(m *proto.Message) {
	m.Src = l.ID
	l.net.Send(m)
}

// sendV transmits a by-value message. Every network/port Send copies the
// message synchronously before anything downstream can run, so a single
// scratch slot per sender is safe and avoids a heap allocation per send
// (the &proto.Message{...} literal idiom escapes through the Port
// interface).
func (l *GPUL2) sendV(m proto.Message) {
	l.out = m
	l.send(&l.out)
}

// ProbeOwned lets system-level checkers audit child ownership records.
func (l *GPUL2) ProbeOwned() map[memaddr.LineAddr]memaddr.WordMask {
	out := make(map[memaddr.LineAddr]memaddr.WordMask)
	l.array.ForEach(func(e *cache.Entry[l2Line]) {
		if e.State.childMask != 0 {
			out[e.Line] = e.State.childMask
		}
	})
	return out
}

// HandleMessage implements noc.Handler.
func (l *GPUL2) HandleMessage(m *proto.Message) {
	l.dispq.Post(m)
}

func (l *GPUL2) dispatch(m *proto.Message) {
	// Flow facts (spandex-graph): child requests queue behind a busy line;
	// L3 forwards that land while our own grant is in flight are parked
	// on the transaction's deferred list. Both waits resolve through
	// guaranteed-sinkable completions. Forwards and revocations only
	// target the owner-capable child kind (gpucoh never takes ownership).
	//
	//spandex:flow queue ReqV,ReqWT,ReqWTData,ReqO,ReqOData,MFwdGetS,MFwdGetM
	//spandex:flow wait grant awaits=MDataS,MDataE,MDataM via=MGetS,MGetM opener=any
	//spandex:flow wait rvk awaits=RspRvkO via=RvkO opener=any
	//spandex:flow emit ReqV dst=denovo-l1
	//spandex:flow emit ReqWT dst=denovo-l1
	//spandex:flow emit ReqO dst=denovo-l1
	//spandex:flow emit ReqOData dst=denovo-l1
	//spandex:flow emit RvkO dst=denovo-l1
	switch m.Type {
	// L3-facing responses and probes.
	case proto.MDataS:
		l.handleGrant(m, mesi.S)
		return
	case proto.MDataE:
		l.handleGrant(m, mesi.E)
		return
	case proto.MDataM:
		l.handleGrant(m, mesi.M)
		return
	case proto.MAckWB:
		delete(l.wbs, m.Line)
		return
	case proto.MInv:
		l.handleL3Inv(m)
		return
	case proto.MFwdGetS, proto.MFwdGetM:
		l.handleL3Fwd(m)
		return
	// Child-facing completions that must never queue.
	case proto.ReqWB:
		l.handleChildWB(m)
		return
	case proto.RspRvkO:
		l.handleChildRvkRsp(m)
		return
	case proto.ReqV, proto.ReqWT, proto.ReqWTData, proto.ReqO, proto.ReqOData:
		// Child requests fall through to the blocked-line queue below.
	default:
		panic("hmesi: GPU L2 cannot handle " + m.Type.String())
	}

	if t, ok := l.txns[m.Line]; ok {
		t.waiting = append(t.waiting, *m)
		l.st.Inc("gpul2.queued", 1)
		return
	}
	l.process(m)
}

func (l *GPUL2) process(m *proto.Message) {
	switch m.Type {
	case proto.ReqV:
		l.handleReqV(m)
	case proto.ReqWT:
		l.handleReqWT(m)
	case proto.ReqWTData:
		l.handleReqWTData(m)
	case proto.ReqO, proto.ReqOData:
		l.handleReqOwn(m)
	default:
		panic("hmesi: GPU L2 cannot handle " + m.Type.String())
	}
}

// need ensures the line is present with (at least) the required state,
// queuing m behind a fetch/upgrade transaction when it is not. It returns
// the entry when the request may proceed now.
func (l *GPUL2) need(m *proto.Message, wantM bool) *cache.Entry[l2Line] {
	e := l.array.Lookup(m.Line)
	if e != nil {
		switch {
		case !wantM && e.State.state != mesi.I:
			return e
		case wantM && (e.State.state == mesi.M || e.State.state == mesi.E):
			e.State.state = mesi.M
			return e
		}
	}
	t := l.newTxn(l2Fetch, m.Line)
	t.wantM = wantM
	t.waiting = append(t.waiting, *m)
	l.txns[m.Line] = t
	if e != nil {
		// The frame exists (Shared upgrade, or a line the L3 invalidated
		// in place): request the missing permission directly.
		if e.State.state == mesi.S && wantM {
			t.wasS = true
		}
		l.sendFetch(m.Line, wantM)
		return nil
	}
	l.allocate(m.Line, wantM)
	return nil
}

// --- child request handlers (Spandex vocabulary) ---

func (l *GPUL2) handleReqV(m *proto.Message) {
	e := l.need(m, false)
	if e == nil {
		return
	}
	st := &e.State
	if m.Mask&^st.childMask != 0 {
		l.sendV(proto.Message{
			Type: proto.RspV, Dst: m.Requestor, Requestor: m.Requestor,
			ReqID: m.ReqID, Line: m.Line, Mask: memaddr.FullMask &^ st.childMask,
			HasData: true, Data: st.data,
		})
	}
	for _, ow := range l.childOwners(st, m.Mask&st.childMask) {
		l.sendV(proto.Message{
			Type: proto.ReqV, Dst: l.children[ow.owner],
			Requestor: m.Requestor, ReqID: m.ReqID, Line: m.Line, Mask: ow.words,
		})
	}
}

// childOwnerWords pairs a child index with its owned words in one line.
type childOwnerWords struct {
	owner int
	words memaddr.WordMask
}

// childOwners groups mask's words by owning child, in ascending child
// order (deterministic message emission).
func (l *GPUL2) childOwners(st *l2Line, mask memaddr.WordMask) []childOwnerWords {
	if mask == 0 {
		return nil
	}
	var byOwner [64]memaddr.WordMask
	max := -1
	mask.ForEach(func(i int) {
		o := int(st.childOwner[i])
		byOwner[o] |= memaddr.MaskOf(i)
		if o > max {
			max = o
		}
	})
	var out []childOwnerWords
	for o := 0; o <= max; o++ {
		if byOwner[o] != 0 {
			out = append(out, childOwnerWords{owner: o, words: byOwner[o]})
		}
	}
	return out
}

func (l *GPUL2) handleReqWT(m *proto.Message) {
	e := l.need(m, true)
	if e == nil {
		return
	}
	st := &e.State
	owned := m.Mask & st.childMask
	plain := m.Mask &^ owned
	if plain != 0 {
		st.data.Merge(&m.Data, plain)
		l.sendV(proto.Message{
			Type: proto.RspWT, Dst: m.Requestor, Requestor: m.Requestor,
			ReqID: m.ReqID, Line: m.Line, Mask: plain,
		})
	}
	if owned != 0 {
		for _, ow := range l.childOwners(st, owned) {
			l.sendV(proto.Message{
				Type: proto.ReqWT, Dst: l.children[ow.owner],
				Requestor: m.Requestor, ReqID: m.ReqID, Line: m.Line, Mask: ow.words,
			})
		}
		st.data.Merge(&m.Data, owned)
		st.childMask &^= owned
	}
}

func (l *GPUL2) handleReqWTData(m *proto.Message) {
	e := l.need(m, true)
	if e == nil {
		return
	}
	st := &e.State
	owned := m.Mask & st.childMask
	if owned != 0 {
		cp := *m
		l.revokeChildren(e, owned, &cp, func() { l.performUpdate(&cp) })
		return
	}
	l.performUpdate(m)
}

// performUpdate applies an atomic at the L2 (the GPU's backing cache).
func (l *GPUL2) performUpdate(m *proto.Message) {
	e := l.array.Lookup(m.Line)
	if e == nil {
		panic("hmesi: update on absent line")
	}
	st := &e.State
	rsp := proto.Message{
		Type: proto.RspWTData, Dst: m.Requestor, Requestor: m.Requestor,
		ReqID: m.ReqID, Line: m.Line, Mask: m.Mask, HasData: true,
	}
	m.Mask.ForEach(func(i int) {
		old := st.data[i]
		var operand uint32
		if m.HasData {
			operand = m.Data[i]
		} else {
			operand = m.Operand
		}
		nv, wrote := m.Atomic.Apply(old, operand, m.Compare)
		rsp.Data[i] = old
		if wrote {
			st.data[i] = nv
		}
	})
	l.st.Inc("gpul2.atomics", 1)
	l.sendV(rsp)
}

func (l *GPUL2) handleReqOwn(m *proto.Message) {
	e := l.need(m, true)
	if e == nil {
		return
	}
	st := &e.State
	reqIdx := int8(l.child(m.Requestor))
	owned := m.Mask & st.childMask
	var self memaddr.WordMask
	owned.ForEach(func(i int) {
		if st.childOwner[i] == reqIdx {
			self |= memaddr.MaskOf(i)
		}
	})
	transfer := owned &^ self
	plain := m.Mask &^ owned

	fwdType := proto.ReqO
	rspType := proto.RspO
	withData := false
	if m.Type == proto.ReqOData {
		fwdType, rspType, withData = proto.ReqOData, proto.RspOData, true
	}
	for _, ow := range l.childOwners(st, transfer) {
		l.sendV(proto.Message{
			Type: fwdType, Dst: l.children[ow.owner],
			Requestor: m.Requestor, ReqID: m.ReqID, Line: m.Line, Mask: ow.words,
		})
	}
	m.Mask.ForEach(func(i int) { st.childOwner[i] = reqIdx })
	st.childMask |= m.Mask
	if plain|self != 0 {
		rsp := proto.Message{
			Type: rspType, Dst: m.Requestor, Requestor: m.Requestor,
			ReqID: m.ReqID, Line: m.Line, Mask: plain | self,
		}
		if withData {
			rsp.HasData = true
			rsp.Data = st.data
		}
		l.sendV(rsp)
	}
}

func (l *GPUL2) handleChildWB(m *proto.Message) {
	e := l.array.Peek(m.Line)
	senderIdx := int8(l.child(m.Src))
	if e != nil {
		st := &e.State
		applied := memaddr.WordMask(0)
		(m.Mask & st.childMask).ForEach(func(i int) {
			if st.childOwner[i] == senderIdx {
				applied |= memaddr.MaskOf(i)
			}
		})
		if applied != 0 {
			st.data.Merge(&m.Data, applied)
			st.childMask &^= applied
		}
	}
	l.sendV(proto.Message{
		Type: proto.RspWB, Dst: m.Src, Requestor: m.Src, ReqID: m.ReqID,
		Line: m.Line, Mask: m.Mask,
	})
	l.maybeCompleteRvk(m.Line)
}

func (l *GPUL2) handleChildRvkRsp(m *proto.Message) {
	// Only meaningful while the revocation that sent the RvkO is still
	// open (the response echoes the probe's Requestor/ReqID). Without a
	// match, the revocation already resolved via the child's racing ReqWB
	// and the line may have been evicted or the child re-granted since —
	// applying the stale response would corrupt the newer state.
	t, ok := l.txns[m.Line]
	if !ok || t.kind != l2Rvk || m.Requestor != l.ID || m.ReqID != t.rvkID {
		l.st.Inc("gpul2.rvk.stale", 1)
		return
	}
	e := l.array.Peek(m.Line)
	if e == nil {
		panic("hmesi: RspRvkO for absent L2 line")
	}
	st := &e.State
	senderIdx := int8(l.child(m.Src))
	applied := memaddr.WordMask(0)
	(m.Mask & st.childMask).ForEach(func(i int) {
		if st.childOwner[i] == senderIdx {
			applied |= memaddr.MaskOf(i)
		}
	})
	if applied != 0 {
		if m.HasData {
			st.data.Merge(&m.Data, applied)
		}
		st.childMask &^= applied
	}
	l.maybeCompleteRvk(m.Line)
}

// revokeChildren pulls the masked words home, then runs after. Requests to
// the line queue behind the revocation.
func (l *GPUL2) revokeChildren(e *cache.Entry[l2Line], mask memaddr.WordMask, origin *proto.Message, after func()) {
	st := &e.State
	t := l.newTxn(l2Rvk, e.Line)
	t.rvkMask, t.after, t.origin = mask, after, origin
	l.reqSeq++
	t.rvkID = l.reqSeq
	for _, ow := range l.childOwners(st, mask) {
		l.sendV(proto.Message{
			Type: proto.RvkO, Dst: l.children[ow.owner], Requestor: l.ID,
			ReqID: t.rvkID, Line: e.Line, Mask: ow.words,
		})
	}
	l.txns[e.Line] = t
	l.st.Inc("gpul2.rvk", 1)
}

func (l *GPUL2) maybeCompleteRvk(line memaddr.LineAddr) {
	t, ok := l.txns[line]
	if !ok || t.kind != l2Rvk {
		return
	}
	e := l.array.Peek(line)
	if e == nil {
		panic("hmesi: rvk txn on absent line")
	}
	if e.State.childMask&t.rvkMask != 0 {
		return
	}
	delete(l.txns, line)
	if t.after != nil {
		t.after()
	}
	l.drain(t)
	l.freeTxn(t)
}

// drain replays t's waiting queue in arrival order. If a replay opens a new
// transaction on the same line, the remainder transfers (by value) onto the
// new transaction's queue.
func (l *GPUL2) drain(t *l2Txn) {
	for i := range t.waiting {
		if nt, ok := l.txns[t.line]; ok {
			nt.waiting = append(nt.waiting, t.waiting[i:]...)
			return
		}
		l.redispatch(&t.waiting[i])
	}
}
