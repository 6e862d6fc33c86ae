// Package hmesi implements the hierarchical MESI baseline the paper
// evaluates Spandex against (§II-D, §IV-A): a line-granularity MESI L3
// directory that caches data and coherence state for CPU MESI L1s and an
// intermediate GPU L2, which in turn filters requests from the GPU L1s.
// CPU↔GPU communication pays hierarchical indirection — through the GPU L2
// and the L3 — and the L3's transient blocking states serialize conflicting
// requests; these are exactly the overheads the evaluation measures.
package hmesi

import (
	"fmt"

	"spandex/internal/cache"
	"spandex/internal/memaddr"
	"spandex/internal/noc"
	"spandex/internal/proto"
	"spandex/internal/sim"
	"spandex/internal/stats"
)

const noOwner = -1

// dirLine is per-line directory + data state at the L3.
type dirLine struct {
	owner    int8 // device index of the M/E owner, or noOwner
	sharers  uint64
	fetching bool
	data     memaddr.LineData
	dirty    bool
}

type dirTxnKind uint8

const (
	dirFetch dirTxnKind = iota
	dirInv
	dirFwd
	dirEvict
)

type dirTxn struct {
	kind        dirTxnKind
	line        memaddr.LineAddr
	waiting     []proto.Message
	origin      proto.Message
	pendingAcks int
	resume      func()
}

// DirConfig parameterizes the L3 directory cache.
type DirConfig struct {
	SizeBytes     int
	Ways          int
	AccessLatency sim.Time
}

// Directory is the hierarchical baseline's MESI LLC (L3).
type Directory struct {
	ID    proto.NodeID
	MemID proto.NodeID

	eng *sim.Engine
	net *noc.Network
	st  *stats.Stats
	cfg DirConfig

	array *cache.Array[dirLine]
	txns  map[memaddr.LineAddr]*dirTxn

	devices []proto.NodeID

	// out is the sendV scratch slot (see sendV).
	out    proto.Message
	devIdx map[proto.NodeID]int

	// txnPool recycles completed dirTxns; waiting queues keep their
	// backing arrays, so blocking a line allocates nothing steady-state.
	txnPool sim.Pool[dirTxn]

	// dispq defers each delivered message by AccessLatency into dispatch
	// (pooled; see noc.DelayQueue).
	dispq *noc.DelayQueue
}

// NewDirectory creates the L3 endpoint.
func NewDirectory(id, memID proto.NodeID, eng *sim.Engine, net *noc.Network, st *stats.Stats, cfg DirConfig) *Directory {
	d := &Directory{
		ID: id, MemID: memID, eng: eng, net: net, st: st, cfg: cfg,
		array:  cache.NewArray[dirLine](cfg.SizeBytes, cfg.Ways),
		txns:   make(map[memaddr.LineAddr]*dirTxn),
		devIdx: make(map[proto.NodeID]int),
	}
	d.dispq = noc.NewDelayQueue(eng, cfg.AccessLatency, d.dispatch)
	net.Register(id, d)
	return d
}

// RegisterDevice declares a client (CPU L1 or GPU L2).
func (d *Directory) RegisterDevice(id proto.NodeID) {
	if _, ok := d.devIdx[id]; ok {
		panic("hmesi: device registered twice")
	}
	d.devIdx[id] = len(d.devices)
	d.devices = append(d.devices, id)
}

// newTxn returns a reset pooled transaction for line (waiting keeps its
// previous backing array, truncated).
func (d *Directory) newTxn(kind dirTxnKind, line memaddr.LineAddr) *dirTxn {
	t := d.txnPool.Get()
	*t = dirTxn{kind: kind, line: line, waiting: t.waiting[:0]}
	return t
}

// freeTxn recycles a completed transaction; touching t afterwards is a
// use-after-free.
func (d *Directory) freeTxn(t *dirTxn) { d.txnPool.Put(t) }

func (d *Directory) dev(id proto.NodeID) int {
	i, ok := d.devIdx[id]
	if !ok {
		panic(fmt.Sprintf("hmesi: unregistered device %d", id))
	}
	return i
}

// HandleMessage implements noc.Handler.
func (d *Directory) HandleMessage(m *proto.Message) {
	d.dispq.Post(m)
}

func (d *Directory) dispatch(m *proto.Message) {
	// Flow facts (spandex-graph): child requests queue behind a busy line;
	// the open transaction resolves through memory fills, invalidation
	// acks and owner write-backs, all of which are processed immediately.
	//
	//spandex:flow queue MGetS,MGetM
	//spandex:flow wait busy awaits=MemReadRsp,MInvAck,MWBData via=MemRead,MInv,MFwdGetS,MFwdGetM opener=any
	switch m.Type {
	case proto.MWBData:
		d.handleWBData(m)
		return
	case proto.MInvAck:
		d.handleInvAck(m)
		return
	case proto.MemReadRsp:
		d.handleMemRsp(m)
		return
	case proto.MPutM:
		d.handlePutM(m)
		return
	case proto.MGetS, proto.MGetM:
		// Child requests fall through to the blocked-line queue below.
	default:
		panic("hmesi: directory cannot handle " + m.Type.String())
	}
	if t, ok := d.txns[m.Line]; ok {
		t.waiting = append(t.waiting, *m)
		d.st.Inc("dir.queued", 1)
		return
	}
	e := d.array.Lookup(m.Line)
	if e == nil {
		d.startFetch(m)
		return
	}
	d.process(e, m)
}

func (d *Directory) process(e *cache.Entry[dirLine], m *proto.Message) {
	switch m.Type {
	case proto.MGetS:
		d.handleGetS(e, m)
	case proto.MGetM:
		d.handleGetM(e, m)
	default:
		panic("hmesi: directory cannot handle " + m.Type.String())
	}
}

func (d *Directory) send(m *proto.Message) {
	m.Src = d.ID
	d.net.Send(m)
}

// sendV transmits a by-value message. Every network/port Send copies the
// message synchronously before anything downstream can run, so a single
// scratch slot per sender is safe and avoids a heap allocation per send
// (the &proto.Message{...} literal idiom escapes through the Port
// interface).
func (d *Directory) sendV(m proto.Message) {
	d.out = m
	d.send(&d.out)
}

func (d *Directory) handleGetS(e *cache.Entry[dirLine], m *proto.Message) {
	st := &e.State
	reqIdx := d.dev(m.Requestor)
	if st.owner != noOwner {
		// Blocking forward: the owner supplies data to the requestor and
		// writes back here (paper §II-A: transient blocking states).
		d.st.Inc("dir.fwd_gets", 1)
		d.sendV(proto.Message{
			Type: proto.MFwdGetS, Dst: d.devices[st.owner],
			Requestor: m.Requestor, ReqID: m.ReqID,
			Line: m.Line, Mask: memaddr.FullMask,
		})
		t := d.newTxn(dirFwd, m.Line)
		t.origin = *m
		d.txns[m.Line] = t
		return
	}
	if st.sharers == 0 {
		// Exclusive optimization: no sharer anywhere → grant E.
		st.owner = int8(reqIdx)
		d.sendV(proto.Message{
			Type: proto.MDataE, Dst: m.Requestor, Requestor: m.Requestor,
			ReqID: m.ReqID, Line: m.Line, Mask: memaddr.FullMask,
			HasData: true, Data: st.data,
		})
		return
	}
	st.sharers |= 1 << reqIdx
	d.sendV(proto.Message{
		Type: proto.MDataS, Dst: m.Requestor, Requestor: m.Requestor,
		ReqID: m.ReqID, Line: m.Line, Mask: memaddr.FullMask,
		HasData: true, Data: st.data,
	})
}

func (d *Directory) handleGetM(e *cache.Entry[dirLine], m *proto.Message) {
	st := &e.State
	reqIdx := d.dev(m.Requestor)
	if st.owner != noOwner {
		if int(st.owner) == reqIdx {
			// Race: the owner's clean-evict PutM crossed with this GetM;
			// treat like a miss from Invalid (grant fresh ownership).
			st.owner = int8(reqIdx)
			d.grantM(m, e)
			return
		}
		d.st.Inc("dir.fwd_getm", 1)
		d.sendV(proto.Message{
			Type: proto.MFwdGetM, Dst: d.devices[st.owner],
			Requestor: m.Requestor, ReqID: m.ReqID,
			Line: m.Line, Mask: memaddr.FullMask,
		})
		t := d.newTxn(dirFwd, m.Line)
		t.origin = *m
		d.txns[m.Line] = t
		return
	}
	remote := st.sharers &^ (1 << reqIdx)
	if remote != 0 {
		t := d.newTxn(dirInv, m.Line)
		t.origin = *m
		for i := 0; i < len(d.devices); i++ {
			if remote&(1<<i) == 0 {
				continue
			}
			t.pendingAcks++
			d.sendV(proto.Message{
				Type: proto.MInv, Dst: d.devices[i], Requestor: d.devices[i],
				Line: m.Line, Mask: memaddr.FullMask,
			})
		}
		st.sharers = 0
		d.txns[m.Line] = t
		d.st.Inc("dir.blocked_inv", 1)
		return
	}
	st.sharers = 0
	st.owner = int8(reqIdx)
	d.grantM(m, e)
}

// grantM sends the Modified grant, always carrying data. A data-less
// upgrade grant would only be sound if a set sharer bit guaranteed the
// requestor still holds the line, but L1s drop Shared lines silently, so
// the sharer list over-approximates: an upgrade granted against a stale
// bit would leave the requestor assembling the line from a zero-filled
// frame and later writing those zeros back over memory.
func (d *Directory) grantM(m *proto.Message, e *cache.Entry[dirLine]) {
	d.sendV(proto.Message{
		Type: proto.MDataM, Dst: m.Requestor, Requestor: m.Requestor,
		ReqID: m.ReqID, Line: m.Line, Mask: memaddr.FullMask,
		HasData: true, Data: e.State.data,
	})
}

func (d *Directory) handlePutM(m *proto.Message) {
	e := d.array.Peek(m.Line)
	senderIdx := int8(d.dev(m.Src))
	if e != nil && e.State.owner == senderIdx {
		if m.HasData {
			e.State.data = m.Data
			e.State.dirty = true
		}
		e.State.owner = noOwner
	} else {
		d.st.Inc("dir.putm_nonowner", 1)
	}
	d.sendV(proto.Message{
		Type: proto.MAckWB, Dst: m.Src, Requestor: m.Src,
		ReqID: m.ReqID, Line: m.Line, Mask: memaddr.FullMask,
	})
}

// handleWBData resolves a blocking forward (or an eviction recall).
func (d *Directory) handleWBData(m *proto.Message) {
	t, ok := d.txns[m.Line]
	if !ok {
		// The owner answered a forward whose transaction a racing PutM
		// already resolved; absorb data if we still track the sender as
		// owner (we don't), else drop.
		d.st.Inc("dir.wbdata_stray", 1)
		return
	}
	e := d.array.Peek(m.Line)
	if e == nil {
		panic("hmesi: WBData for absent line")
	}
	st := &e.State
	if m.HasData {
		st.data = m.Data
		st.dirty = true
	}
	delete(d.txns, m.Line)
	switch t.kind {
	case dirFwd:
		switch t.origin.Type {
		case proto.MGetS:
			// Owner downgraded M→S and sent DataS directly; both are
			// sharers now.
			st.sharers |= 1 << d.dev(t.origin.Requestor)
			if st.owner != noOwner {
				st.sharers |= 1 << st.owner
			}
			st.owner = noOwner
		case proto.MGetM:
			st.owner = int8(d.dev(t.origin.Requestor))
		default:
			panic("hmesi: bad fwd origin")
		}
	case dirEvict:
		st.owner = noOwner
		t.resume()
	default:
		panic("hmesi: WBData for non-fwd txn")
	}
	d.drain(t)
	d.freeTxn(t)
}

func (d *Directory) handleInvAck(m *proto.Message) {
	t, ok := d.txns[m.Line]
	if !ok || (t.kind != dirInv && t.kind != dirEvict) {
		panic("hmesi: stray InvAck")
	}
	t.pendingAcks--
	if t.pendingAcks > 0 {
		return
	}
	delete(d.txns, m.Line)
	if t.kind == dirEvict {
		t.resume()
		d.drain(t)
		d.freeTxn(t)
		return
	}
	e := d.array.Peek(m.Line)
	if e == nil {
		panic("hmesi: InvAck for absent line")
	}
	e.State.owner = int8(d.dev(t.origin.Requestor))
	d.grantM(&t.origin, e)
	d.drain(t)
	d.freeTxn(t)
}

// drain replays t's waiting queue in arrival order; remainders transfer
// (by value) onto any new transaction a replay opens on the same line.
func (d *Directory) drain(t *dirTxn) {
	for i := range t.waiting {
		m := &t.waiting[i]
		if nt, ok := d.txns[t.line]; ok {
			nt.waiting = append(nt.waiting, t.waiting[i:]...)
			return
		}
		e := d.array.Lookup(t.line)
		if e == nil {
			rest := t.waiting[i:]
			d.startFetch(m)
			if nt, ok := d.txns[t.line]; ok && len(rest) > 1 {
				nt.waiting = append(nt.waiting, rest[1:]...)
			}
			return
		}
		d.process(e, m)
	}
}
