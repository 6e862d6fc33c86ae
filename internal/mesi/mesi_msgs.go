package mesi

import (
	"spandex/internal/memaddr"
	"spandex/internal/proto"
)

// HandleMessage implements noc.Handler for MESI-native messages.
func (l *L1) HandleMessage(m *proto.Message) {
	// Flow facts (spandex-graph): forwards and invalidations that arrive
	// before an outstanding miss's data are deferred until the grant
	// lands; the grant itself is always consumed immediately.
	//
	//spandex:flow queue MFwdGetS,MFwdGetM,MInv
	//spandex:flow wait grant awaits=MDataS,MDataE,MDataM via=MGetS,MGetM opener=any
	switch m.Type {
	case proto.MDataS:
		l.handleData(m, S)
	case proto.MDataE:
		l.handleData(m, E)
	case proto.MDataM:
		l.handleData(m, M)
	case proto.MAckWB:
		delete(l.wbs, m.Line)
	case proto.MInv:
		l.handleInv(m)
	case proto.MFwdGetS:
		l.handleFwdGetS(m)
	case proto.MFwdGetM:
		l.handleFwdGetM(m)
	default:
		panic("mesi: unexpected message " + m.Type.String())
	}
}

// handleData completes an outstanding miss with the granted state.
func (l *L1) handleData(m *proto.Message, grant State) {
	me := l.miss.Lookup(m.Line)
	if me == nil {
		return
	}
	// A data-less grant relies on a valid local copy — a guarantee silent
	// S-eviction revokes, which is why the directory always sends data.
	// Assembling a line in a fresh zero-filled frame would later write
	// zeros back over memory, so fail loudly instead.
	if !m.HasData {
		if e := l.array.Lookup(m.Line); e == nil || e.State.state == I {
			panic("mesi: data-less grant without a valid copy")
		}
	}
	e := l.ensureFrame(m.Line)
	if m.HasData {
		e.State.data = m.Data
	}
	e.State.state = grant

	for _, w := range me.waiters {
		v := e.State.data[w.word]
		done := w.done
		l.eng.ScheduleCall(0, done, v)
	}
	me.waiters = me.waiters[:0]

	if grant == E || grant == M {
		if me.applyStores {
			if sbe := l.sb.Lookup(m.Line); sbe != nil {
				e.State.data.Merge(&sbe.Data, sbe.Mask)
				e.State.state = M
				l.sb.Complete(m.Line)
				l.checkFlush()
			}
			me.applyStores = false
		}
		for _, a := range me.atomics {
			w := a.op.Addr.WordIndex()
			old := e.State.data[w]
			nv, wrote := a.op.Atomic.Apply(old, a.op.Value, a.op.Compare)
			if wrote {
				e.State.data[w] = nv
			}
			e.State.state = M
			done := a.done
			l.eng.ScheduleCall(0, done, old)
		}
		me.atomics = me.atomics[:0]
		me.escalate = false
	}

	if me.escalate {
		// Stores/atomics arrived during the GetS: follow with a GetM.
		me.escalate = false
		me.reqID = l.nextReq()
		l.getMs.Inc(1)
		l.sendV(proto.Message{
			Type: proto.MGetM, Dst: l.parent(m.Line), Requestor: l.ID,
			ReqID: me.reqID, Line: m.Line, Mask: memaddr.FullMask,
			Trace: me.trace,
		})
		return
	}

	deferred := me.deferred
	l.miss.Free(m.Line)
	if l.obs != nil {
		l.mshrOcc()
	}
	for _, d := range deferred {
		l.HandleMessage(d)
	}
}

func (l *L1) handleInv(m *proto.Message) {
	if e := l.array.Peek(m.Line); e != nil && e.State.state == S {
		l.array.Invalidate(m.Line)
	}
	l.st.Inc("mesil1.invalidated", 1)
	l.sendV(proto.Message{
		Type: proto.MInvAck, Dst: m.Src, Requestor: l.ID,
		ReqID: m.ReqID, Line: m.Line, Mask: m.Mask, Trace: m.Trace,
	})
}

func (l *L1) handleFwdGetS(m *proto.Message) {
	if e := l.array.Peek(m.Line); e != nil && (e.State.state == M || e.State.state == E) {
		e.State.state = S
		l.sendFwdGetSRsp(m, e.State.data)
		return
	}
	if wb := l.wbs[m.Line]; wb != nil {
		// Pending write-back (§III-D case 3): answer from the record.
		l.sendFwdGetSRsp(m, wb.data)
		return
	}
	if me := l.miss.Lookup(m.Line); me != nil && me.needM {
		// Ownership grant in flight (case 2): defer until data arrives.
		cp := *m
		me.deferred = append(me.deferred, &cp)
		return
	}
	panic("mesi: FwdGetS for line in unexpected state")
}

func (l *L1) sendFwdGetSRsp(m *proto.Message, data memaddr.LineData) {
	l.sendV(proto.Message{
		Type: proto.MDataS, Dst: m.Requestor, Requestor: m.Requestor,
		ReqID: m.ReqID, Line: m.Line, Mask: memaddr.FullMask,
		HasData: true, Data: data, Trace: m.Trace,
	})
	l.sendV(proto.Message{
		Type: proto.MWBData, Dst: m.Src, Requestor: l.ID,
		ReqID: m.ReqID, Line: m.Line, Mask: memaddr.FullMask,
		HasData: true, Data: data, Trace: m.Trace,
	})
}

func (l *L1) handleFwdGetM(m *proto.Message) {
	if e := l.array.Peek(m.Line); e != nil && (e.State.state == M || e.State.state == E) {
		data := e.State.data
		l.array.Invalidate(m.Line)
		l.sendFwdGetMRsp(m, data)
		return
	}
	if wb := l.wbs[m.Line]; wb != nil {
		l.sendFwdGetMRsp(m, wb.data)
		return
	}
	if me := l.miss.Lookup(m.Line); me != nil && me.needM {
		cp := *m
		me.deferred = append(me.deferred, &cp)
		return
	}
	panic("mesi: FwdGetM for line in unexpected state")
}

// sendFwdGetMRsp transfers the line to the requestor (or back to the
// directory for a recall) and unblocks the directory.
func (l *L1) sendFwdGetMRsp(m *proto.Message, data memaddr.LineData) {
	if m.Requestor == m.Src {
		// Recall: the directory itself wants the data (LLC eviction).
		l.sendV(proto.Message{
			Type: proto.MWBData, Dst: m.Src, Requestor: l.ID,
			ReqID: m.ReqID, Line: m.Line, Mask: memaddr.FullMask,
			HasData: true, Data: data, Trace: m.Trace,
		})
		return
	}
	l.sendV(proto.Message{
		Type: proto.MDataM, Dst: m.Requestor, Requestor: m.Requestor,
		ReqID: m.ReqID, Line: m.Line, Mask: memaddr.FullMask,
		HasData: true, Data: data, Trace: m.Trace,
	})
	l.sendV(proto.Message{
		Type: proto.MWBData, Dst: m.Src, Requestor: l.ID,
		ReqID: m.ReqID, Line: m.Line, Mask: memaddr.FullMask,
		Trace: m.Trace,
	})
}
