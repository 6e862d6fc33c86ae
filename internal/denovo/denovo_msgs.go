package denovo

import (
	"spandex/internal/memaddr"
	"spandex/internal/proto"
)

// HandleMessage implements noc.Handler: responses for this cache's own
// requests plus forwarded requests and probes for words it owns
// (paper Table IV and §III-C race handling).
func (l *L1) HandleMessage(m *proto.Message) {
	// Flow facts (spandex-graph): external requests hitting a word with an
	// outstanding miss are deferred until its data arrives; the responses
	// that complete the miss are always consumed immediately.
	//
	//spandex:flow queue ReqV,ReqO,ReqOData,ReqWT
	//spandex:flow wait pending awaits=RspV,NackV,RspO,RspOData,RspWTData,RspWB via=ReqV,ReqOData,ReqWB opener=any
	switch m.Type {
	case proto.RspV:
		l.handleRspV(m)
	case proto.NackV:
		l.handleNack(m)
	case proto.RspO:
		l.handleRspO(m)
	case proto.RspOData:
		l.handleRspOData(m)
	case proto.RspWTData:
		l.handleRspWTData(m)
	case proto.RspWB:
		l.handleRspWB(m)
	case proto.RspWT:
		// Only AtomicsAtLLC mode writes through, and those are ReqWT+data;
		// plain RspWT means a protocol bug.
		panic("denovo: unexpected RspWT")
	case proto.ReqV:
		l.handleExtReqV(m)
	case proto.ReqO, proto.ReqOData:
		l.handleExtOwn(m)
	case proto.ReqWT:
		l.handleExtReqWT(m)
	case proto.RvkO:
		l.handleRvkO(m)
	case proto.Inv:
		l.handleInv(m)
	default:
		panic("denovo: unexpected message " + m.Type.String())
	}
}

func (l *L1) handleRspV(m *proto.Message) {
	r := l.reads.Lookup(m.Line)
	if r == nil {
		return // entry already completed (e.g. by escalation)
	}
	fresh := m.Mask &^ r.arrived
	r.arrived |= fresh
	r.data.Merge(&m.Data, fresh)
	l.completeRead(m.Line, r)
}

func (l *L1) handleNack(m *proto.Message) {
	r := l.reads.Lookup(m.Line)
	if r == nil {
		return
	}
	fresh := m.Mask &^ r.retried &^ r.arrived
	if fresh != 0 {
		r.retried |= fresh
		l.st.Inc("dnl1.nack_retry", 1)
		l.sendV(proto.Message{
			Type: proto.ReqV, Dst: l.parent(m.Line), Requestor: l.ID,
			ReqID: r.reqID, Line: m.Line, Mask: fresh, Trace: r.trace,
		})
	}
	// Second failure: escalate to ReqO+data, which enforces global
	// ordering against racing ownership requests (paper §III-C3).
	escalate := (m.Mask & r.retried &^ r.arrived &^ r.escalated) & ^fresh
	if escalate != 0 {
		r.escalated |= escalate
		l.st.Inc("dnl1.nack_escalate", 1)
		l.sendV(proto.Message{
			Type: proto.ReqOData, Dst: l.parent(m.Line), Requestor: l.ID,
			ReqID: r.reqID, Line: m.Line, Mask: escalate, Trace: r.trace,
		})
	}
}

// completeRead fires waiters whose words arrived and installs the line
// when the outstanding set is fully covered.
func (l *L1) completeRead(la memaddr.LineAddr, r *readMiss) {
	// Compact still-waiting entries in place: rest aliases r.waiters'
	// backing array (appends lag the scan), so the slot keeps its waiter
	// capacity across Free/AllocReuse cycles.
	rest := r.waiters[:0]
	for _, w := range r.waiters {
		if r.arrived.Has(w.word) {
			v := r.data[w.word]
			l.eng.ScheduleCall(0, w.done, v)
		} else {
			rest = append(rest, w)
		}
	}
	r.waiters = rest
	if r.arrived&r.want != r.want {
		return
	}
	e := l.ensureLine(la)
	install := r.arrived &^ e.State.owned
	if o := l.owns[la]; o != nil {
		install &^= o.issued
	}
	if wbe := l.wb.Lookup(la); wbe != nil {
		install &^= wbe.Mask
	}
	e.State.data.Merge(&r.data, install)
	e.State.valid |= install
	e.State.owned |= r.ownedGot & install
	l.reads.Free(la)
	if l.obs != nil {
		l.mshrOcc()
	}
}

func (l *L1) handleRspO(m *proto.Message) {
	o := l.owns[m.Line]
	if o == nil {
		return
	}
	o.arrived |= m.Mask & o.issued
	l.completeOwn(m.Line, o)
}

func (l *L1) completeOwn(la memaddr.LineAddr, o *ownReq) {
	if o.arrived|o.downgraded != o.issued {
		return
	}
	grant := o.issued &^ o.downgraded
	if grant != 0 {
		e := l.ensureLine(la)
		e.State.owned |= grant
		e.State.valid |= grant
		e.State.data.Merge(&o.data, grant)
	}
	delete(l.owns, la)
	l.ownPool.Put(o)
	l.wb.Complete(la)
	l.checkFlush()
}

func (l *L1) handleRspOData(m *proto.Message) {
	if a, ok := l.atoms[m.ReqID]; ok {
		l.finishAtomic(m.ReqID, a, m)
		return
	}
	// Read escalation fill: the word arrives with ownership.
	r := l.reads.Lookup(m.Line)
	if r == nil {
		return
	}
	fresh := m.Mask &^ r.arrived
	r.arrived |= fresh
	r.ownedGot |= fresh
	r.data.Merge(&m.Data, fresh)
	l.completeRead(m.Line, r)
}

func (l *L1) finishAtomic(id uint64, a atomicReq, m *proto.Message) {
	la, w := a.op.Addr.Line(), a.op.Addr.WordIndex()
	old := m.Data[w]
	if a.atLLC {
		// Performed at the LLC; the local copy (if any) is stale.
		if e := l.array.Peek(la); e != nil {
			e.State.valid &^= a.op.Addr.WordMaskOf()
		}
	} else {
		// Perform the RMW locally and keep the word Owned.
		nv, _ := a.op.Atomic.Apply(old, a.op.Value, a.op.Compare)
		e := l.ensureLine(la)
		e.State.owned |= a.op.Addr.WordMaskOf()
		e.State.valid |= a.op.Addr.WordMaskOf()
		e.State.data[w] = nv
	}
	deferred := a.deferred
	delete(l.atoms, id)
	delete(l.atomByWord, a.op.Addr)
	a.done(old)
	// Externals that raced with the pending atomic resume against the now
	// stable state (paper §III-C1: delayed until the data request completes).
	for i := range deferred {
		l.HandleMessage(&deferred[i])
	}
}

func (l *L1) handleRspWTData(m *proto.Message) {
	a, ok := l.atoms[m.ReqID]
	if !ok {
		return
	}
	l.finishAtomic(m.ReqID, a, m)
}

func (l *L1) handleRspWB(m *proto.Message) {
	wb, ok := l.wbs[m.Line]
	if !ok {
		return // completed locally by a racing downgrade (paper §III-C2)
	}
	wb.mask &^= m.Mask
	if wb.mask == 0 {
		delete(l.wbs, m.Line)
	}
}

// deferToAtomic queues the single-word slice of an external request behind
// the pending atomic covering that word.
func (l *L1) deferToAtomic(m *proto.Message, word int) {
	addr := m.Line.Addr(word)
	id := l.atomByWord[addr]
	cp := *m
	cp.Mask = memaddr.MaskOf(word)
	a := l.atoms[id]
	a.deferred = append(a.deferred, cp)
	l.atoms[id] = a
}

// splitExternal partitions an external request's words by where their
// up-to-date copy lives right now.
type extSplit struct {
	deferred memaddr.WordMask // pending atomic: delay (§III-C1)
	stable   memaddr.WordMask // owned in the array
	inWB     memaddr.WordMask // pending write-back (§III-C2)
	pending  memaddr.WordMask // ReqO grant in flight (§III-C2)
	missing  memaddr.WordMask // no claim at all (ReqV/Inv only, §III-C3)
}

func (l *L1) split(m *proto.Message) extSplit {
	var s extSplit
	e := l.array.Peek(m.Line)
	wb := l.wbs[m.Line]
	o := l.owns[m.Line]
	m.Mask.ForEach(func(i int) {
		bit := memaddr.MaskOf(i)
		switch {
		// A live write-back record always wins: the LLC's RspWB precedes
		// any new-epoch forward (point-to-point FIFO), so a still-recorded
		// word means this request targets the epoch being written back.
		// Deferring it behind our own pending request instead can deadlock
		// through the LLC.
		case wb != nil && wb.mask.Has(i):
			s.inWB |= bit
		case l.hasAtom(m.Line, i):
			s.deferred |= bit
		case e != nil && e.State.owned.Has(i):
			s.stable |= bit
		case o != nil && o.issued.Has(i) && !o.downgraded.Has(i):
			s.pending |= bit
		default:
			s.missing |= bit
		}
	})
	return s
}

func (l *L1) hasAtom(la memaddr.LineAddr, w int) bool {
	_, ok := l.atomByWord[la.Addr(w)]
	return ok
}

// gatherData merges the up-to-date value of each selected word from its
// current home (array, pending write-back, or in-flight store data).
func (l *L1) gatherData(m *proto.Message, s extSplit) memaddr.LineData {
	var data memaddr.LineData
	if e := l.array.Peek(m.Line); e != nil {
		data.Merge(&e.State.data, s.stable)
	}
	if wb := l.wbs[m.Line]; wb != nil {
		data.Merge(&wb.data, s.inWB)
	}
	if o := l.owns[m.Line]; o != nil {
		data.Merge(&o.data, s.pending)
	}
	return data
}

func (l *L1) handleExtReqV(m *proto.Message) {
	s := l.split(m)
	s.deferred.ForEach(func(i int) { l.deferToAtomic(m, i) })
	serve := s.stable | s.inWB | s.pending
	if serve != 0 {
		// Flexible-granularity response (paper §II-C): include every
		// *owned* word of the line, not just the requested ones — they
		// are guaranteed fresh and ride along for free. (Merely Valid
		// words must not be forwarded: they may predate the requestor's
		// acquire.)
		extra := m
		if e := l.array.Peek(m.Line); e != nil {
			if bonus := e.State.owned &^ m.Mask; bonus != 0 {
				cp := *m
				cp.Mask = m.Mask | bonus
				extra = &cp
				s = l.split(extra)
				serve = s.stable | s.inWB | s.pending
			}
		}
		data := l.gatherData(extra, s)
		l.sendV(proto.Message{
			Type: proto.RspV, Dst: m.Requestor, Requestor: m.Requestor,
			ReqID: m.ReqID, Line: m.Line, Mask: serve, HasData: true, Data: data,
			Trace: m.Trace,
		})
	}
	if s.missing != 0 {
		// We no longer own these words: Nack so the requestor retries
		// (paper §III-C3).
		l.st.Inc("dnl1.nack_sent", 1)
		l.sendV(proto.Message{
			Type: proto.NackV, Dst: m.Requestor, Requestor: m.Requestor,
			ReqID: m.ReqID, Line: m.Line, Mask: s.missing, Trace: m.Trace,
		})
	}
}

// handleExtOwn serves forwarded ReqO / ReqO+data: ownership (and data for
// ReqO+data) transfers to the requestor; our copy downgrades.
func (l *L1) handleExtOwn(m *proto.Message) {
	s := l.split(m)
	s.deferred.ForEach(func(i int) { l.deferToAtomic(m, i) })
	act := s.stable | s.inWB | s.pending
	if act == 0 {
		return
	}
	rsp := proto.Message{
		Type: proto.RspO, Dst: m.Requestor, Requestor: m.Requestor,
		ReqID: m.ReqID, Line: m.Line, Mask: act, Trace: m.Trace,
	}
	if m.Type == proto.ReqOData {
		rsp.Type = proto.RspOData
		rsp.HasData = true
		rsp.Data = l.gatherData(m, s)
	}
	l.downgrade(m.Line, s)
	l.sendV(rsp)
}

// handleExtReqWT: the LLC already serialized the remote write-through and
// took its data; we downgrade the written words and ack the requestor
// directly (paper Fig. 1d).
func (l *L1) handleExtReqWT(m *proto.Message) {
	s := l.split(m)
	s.deferred.ForEach(func(i int) { l.deferToAtomic(m, i) })
	act := s.stable | s.inWB | s.pending
	if act == 0 {
		return
	}
	l.downgrade(m.Line, s)
	l.sendV(proto.Message{
		Type: proto.RspWT, Dst: m.Requestor, Requestor: m.Requestor,
		ReqID: m.ReqID, Line: m.Line, Mask: act, Trace: m.Trace,
	})
}

// handleRvkO writes owned data back to the LLC and downgrades
// (paper Fig. 1b). For words whose ReqWB is already in flight, the
// response carries no new information but still clears our claim.
func (l *L1) handleRvkO(m *proto.Message) {
	s := l.split(m)
	s.deferred.ForEach(func(i int) { l.deferToAtomic(m, i) })
	act := s.stable | s.inWB | s.pending
	if act == 0 {
		return
	}
	data := l.gatherData(m, s)
	l.downgrade(m.Line, s)
	l.sendV(proto.Message{
		Type: proto.RspRvkO, Dst: m.Src, Requestor: m.Requestor,
		ReqID: m.ReqID, Line: m.Line, Mask: act, HasData: true, Data: data,
		Trace: m.Trace,
	})
}

// downgrade clears our claim on the split's actionable words.
func (l *L1) downgrade(la memaddr.LineAddr, s extSplit) {
	if e := l.array.Peek(la); e != nil && s.stable != 0 {
		e.State.owned &^= s.stable
		e.State.valid &^= s.stable
	}
	if wb := l.wbs[la]; wb != nil && s.inWB != 0 {
		// The LLC no longer considers us owner: complete the pending
		// write-back locally (paper §III-C2).
		wb.mask &^= s.inWB
		if wb.mask == 0 {
			delete(l.wbs, la)
		}
	}
	if o := l.owns[la]; o != nil && s.pending != 0 {
		o.downgraded |= s.pending
		l.completeOwn(la, o)
	}
}

func (l *L1) handleInv(m *proto.Message) {
	// DeNovo holds no Shared state; an Inv (LLC evicting a Shared line)
	// can only concern Valid words, which drop silently (§III-C3).
	if e := l.array.Peek(m.Line); e != nil {
		e.State.valid &= e.State.owned
	}
	l.sendV(proto.Message{Type: proto.InvAck, Dst: m.Src, Line: m.Line, Mask: m.Mask, Trace: m.Trace})
}

// HoldsExternalFor reports whether the L1 is holding any external request
// slice deferred behind a pending atomic (deferToAtomic) whose eventual
// response targets dev. The model checker's partial-order reduction
// consults this between actions — while it holds, the delivery completing
// the atomic at *this* device releases the deferred response onto a
// possibly empty FIFO toward dev, so dev's action group is not persistent
// (DESIGN.md §10).
func (l *L1) HoldsExternalFor(dev proto.NodeID) bool {
	//spandex:maprange any-exists query; iteration order cannot change the boolean result
	for _, a := range l.atoms {
		for i := range a.deferred {
			if a.deferred[i].Requestor == dev {
				return true
			}
		}
	}
	return false
}
