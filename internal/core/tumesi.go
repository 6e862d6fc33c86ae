package core

import (
	"spandex/internal/detsort"
	"spandex/internal/memaddr"
	"spandex/internal/mesi"
	"spandex/internal/noc"
	"spandex/internal/proto"
	"spandex/internal/sim"
	"spandex/internal/stats"
)

// MESITU is the per-device translation unit that attaches an unmodified
// line-granularity MESI cache to the Spandex LLC (paper §III-D). It
// translates the cache's directory-protocol requests into Spandex requests
// (Table II: Read→ReqS line, Write/RMW→ReqO+data line, Owned
// Repl→ReqWB line), coalesces word-granularity partial responses from
// multiple sources into single line grants, and implements the three
// pending-state cases for word-granularity external requests:
//
//  1. stable O — external requests are converted to line granularity; a
//     partial-line downgrade triggers a ReqWB for the untouched words;
//  2. pending O request — ownership-only downgrades are answered
//     immediately and remembered; data-requiring requests wait for the
//     grant; afterwards the line transitions to I, writing back words that
//     received no downgrade request;
//  3. pending write-back — requests are answered from the retained copy.
type MESITU struct {
	ID  proto.NodeID
	eng *sim.Engine
	net *noc.Network
	st  *stats.Stats

	llcID proto.NodeID
	// llcBanks routes each line to its home bank at NodeID
	// llcID+BankOf(line) when the LLC is bank-sharded; <=1 keeps every
	// line homed at llcID (the flat LLC).
	llcBanks int
	// Latency models the TU's single-cycle lookup in each direction
	// (paper §III-F / §IV).
	latency sim.Time

	l1 *mesi.L1

	pend   map[memaddr.LineAddr]*tuPending
	wbs    map[memaddr.LineAddr]*tuWB
	probes map[uint64]*tuProbe
	// probeLines marks lines with an in-flight synthesized probe; externals
	// arriving in that window queue behind it (the line is already
	// invalidated at the L1 but its data has not reached the TU yet).
	probeLines map[memaddr.LineAddr]uint64
	// internalInvs are synthesized MInv ids (option-2 downgrades) whose
	// acks must not be relayed to the LLC.
	internalInvs map[uint64]bool
	reqSeq       uint64

	// out is the sendV scratch slot (see sendV); toL1 is the same idiom
	// for synchronous L1 injections (see l1V).
	out  proto.Message
	toL1 proto.Message

	// pendPool/probePool/wbPool recycle the TU's transient records (and
	// their queues' backing arrays) across transactions.
	pendPool  sim.Pool[tuPending]
	probePool sim.Pool[tuProbe]
	wbPool    sim.Pool[tuWB]

	checker *Checker
	// audits counts per-transition checks, resolved on first increment.
	audits stats.Handle

	// fromL1Q/fromNetQ defer messages by the TU lookup latency into the
	// translation paths (pooled; see noc.DelayQueue).
	fromL1Q  *noc.DelayQueue
	fromNetQ *noc.DelayQueue
}

type tuKind uint8

const (
	pendS tuKind = iota // MGetS → ReqS outstanding
	pendM               // MGetM → ReqO+data outstanding
)

type tuPending struct {
	kind    tuKind
	l1ReqID uint64
	// trace is the observability request id carried by the L1's request,
	// re-stamped on every retry/escalation the TU issues for it.
	trace   uint64
	arrived memaddr.WordMask
	data    memaddr.LineData
	// owned marks words granted with ownership (RspO+data parts).
	owned memaddr.WordMask
	// opt2 marks a ReqS the LLC answered as a ReqV (Table III option 2):
	// the cache must downgrade to Invalid after the read completes.
	opt2 bool
	// retried/escalated track the §III-C3 Nack handling for option-2
	// reads, whose forwarded ReqVs can fail.
	retried   memaddr.WordMask
	escalated memaddr.WordMask
	// downgraded: words answered to external ownership requests while the
	// grant was pending (case 2).
	downgraded memaddr.WordMask
	// invalidated marks a read grant that an external Inv overtook: the
	// LLC registered this TU as a sharer when it processed the ReqS, a
	// later writer invalidated the sharer set, and the Inv arrived before
	// the grant data (which travels from the previous owner on a
	// different channel, so pairwise FIFO cannot order them). The grant
	// still serves the waiting loads — they are ordered before the
	// invalidating write — but the line must not stay resident.
	invalidated bool
	// deferred holds externals by value; the backing array is recycled
	// with the tuPending through pendPool.
	deferred []proto.Message
}

type tuWB struct {
	mask memaddr.WordMask
	data memaddr.LineData
}

type tuProbe struct {
	// orig is the external Spandex request that triggered the synthesized
	// MESI probe; hasOrig is false for the case-2 post-grant cleanup.
	orig    proto.Message
	hasOrig bool
	// downgraded: words not written back after a case-2 cleanup.
	downgraded memaddr.WordMask
	// afterward: externals that arrived while the probe was in flight,
	// held by value (backing array recycled through probePool).
	afterward []proto.Message
}

// NewMESITU creates the TU for one MESI device. Call Bind with the L1
// (constructed with the TU as its port) before running.
func NewMESITU(id proto.NodeID, eng *sim.Engine, net *noc.Network, st *stats.Stats, llcID proto.NodeID, latency sim.Time) *MESITU {
	tu := &MESITU{
		ID: id, eng: eng, net: net, st: st, llcID: llcID, latency: latency,
		pend:         make(map[memaddr.LineAddr]*tuPending),
		wbs:          make(map[memaddr.LineAddr]*tuWB),
		probes:       make(map[uint64]*tuProbe),
		probeLines:   make(map[memaddr.LineAddr]uint64),
		internalInvs: make(map[uint64]bool),
		audits:       st.Handle("check.transition"),
	}
	tu.fromL1Q = noc.NewDelayQueue(eng, latency, func(m *proto.Message) {
		tu.fromL1(m)
		tu.audit(m)
	})
	tu.fromNetQ = noc.NewDelayQueue(eng, latency, func(m *proto.Message) {
		tu.fromNet(m)
		tu.audit(m)
	})
	net.Register(id, tu)
	return tu
}

// Bind attaches the MESI cache behind this TU.
func (tu *MESITU) Bind(l1 *mesi.L1) { tu.l1 = l1 }

// SetChecker installs the invariant checker. The TU audits its own
// bookkeeping after every message when CheckEveryTransition is armed.
func (tu *MESITU) SetChecker(c *Checker) { tu.checker = c }

// audit validates the TU's transient bookkeeping after a message has been
// fully processed (CheckEveryTransition mode): write-back records must
// cover at least one word, every line marked as probe-blocked must point
// at a live probe, and a pending grant whose words have all arrived must
// have completed (a fully-arrived entry still pending means a lost
// completion).
func (tu *MESITU) audit(m *proto.Message) {
	c := tu.checker
	if c == nil || !c.CheckEveryTransition {
		return
	}
	tu.audits.Inc(1)
	// Stamp the triggering message as the violation context; "TU" marks
	// the audit as device-side (the state label vocabulary is the LLC's).
	c.SetContext(tu.eng.Now(), m.Line, "TU", m.Type.Ident())
	for _, line := range detsort.Keys(tu.wbs) {
		if tu.wbs[line].mask == 0 {
			c.fail("TU %d: write-back record for line %#x covers no words", tu.ID, uint64(line))
		}
	}
	for _, line := range detsort.Keys(tu.probeLines) {
		if _, ok := tu.probes[tu.probeLines[line]]; !ok {
			c.fail("TU %d: line %#x blocked on probe %d which no longer exists",
				tu.ID, uint64(line), tu.probeLines[line])
		}
	}
	for _, line := range detsort.Keys(tu.pend) {
		if tu.pend[line].arrived == memaddr.FullMask {
			c.fail("TU %d: pending grant for line %#x fully arrived but never completed",
				tu.ID, uint64(line))
		}
	}
}

// ProbeOwned reports the device's owned words for the system checker.
func (tu *MESITU) ProbeOwned() map[memaddr.LineAddr]memaddr.WordMask {
	return tu.l1.ProbeOwned()
}

var _ noc.Port = (*MESITU)(nil)

func (tu *MESITU) nextReq() uint64 {
	tu.reqSeq++
	return tu.reqSeq
}

// SetLLCBanks declares the LLC an interleaved array of n banks at
// consecutive NodeIDs starting at the constructor's llcID. Call before
// running; the default is the flat single-bank LLC.
func (tu *MESITU) SetLLCBanks(n int) { tu.llcBanks = n }

func (tu *MESITU) sendLLC(m *proto.Message) {
	m.Src = tu.ID
	m.Dst = proto.HomeOf(tu.llcID, tu.llcBanks, m.Line)
	tu.net.Send(m)
}

func (tu *MESITU) sendNet(m *proto.Message) {
	m.Src = tu.ID
	tu.net.Send(m)
}

// sendV transmits a by-value message. Every network/port Send copies the
// message synchronously before anything downstream can run, so a single
// scratch slot per sender is safe and avoids a heap allocation per send
// (the &proto.Message{...} literal idiom escapes through the Port
// interface).
func (tu *MESITU) sendNetV(m proto.Message) {
	tu.out = m
	tu.sendNet(&tu.out)
}

func (tu *MESITU) sendLLCV(m proto.Message) {
	tu.out = m
	tu.sendLLC(&tu.out)
}

// l1V injects a by-value message into the MESI cache. L1.HandleMessage
// consumes the message synchronously (anything it retains is copied), so
// one scratch slot is safe — the same contract sendV relies on.
func (tu *MESITU) l1V(m proto.Message) {
	tu.toL1 = m
	tu.l1.HandleMessage(&tu.toL1)
}

// newPending takes a grant record from the pool, keeping the deferred
// queue's backing array from its previous life.
func (tu *MESITU) newPending(kind tuKind, l1ReqID, trace uint64) *tuPending {
	p := tu.pendPool.Get()
	*p = tuPending{kind: kind, l1ReqID: l1ReqID, trace: trace, deferred: p.deferred[:0]}
	return p
}

// Send implements noc.Port: it receives everything the MESI L1 emits.
func (tu *MESITU) Send(m *proto.Message) {
	if m.Type == proto.MPutM {
		// Record the write-back synchronously: the L1 invalidates its
		// frame in the same instant it announces the eviction, so the
		// record must exist before any concurrently delivered external
		// probes the now-Invalid cache (the port latency models moving
		// the data, not the state change). Externals may consume words
		// from the record before fromL1 emits the ReqWB.
		wb := tu.wbPool.Get()
		*wb = tuWB{mask: memaddr.FullMask, data: m.Data}
		tu.wbs[m.Line] = wb
	}
	tu.fromL1Q.Post(m)
}

func (tu *MESITU) fromL1(m *proto.Message) {
	switch m.Type {
	case proto.MGetS:
		p := tu.newPending(pendS, m.ReqID, m.Trace)
		tu.pend[m.Line] = p
		tu.sendLLCV(proto.Message{
			Type: proto.ReqS, Requestor: tu.ID, ReqID: m.ReqID,
			Line: m.Line, Mask: memaddr.FullMask, Trace: p.trace,
		})
	case proto.MGetM:
		p := tu.newPending(pendM, m.ReqID, m.Trace)
		tu.pend[m.Line] = p
		tu.sendLLCV(proto.Message{
			Type: proto.ReqOData, Requestor: tu.ID, ReqID: m.ReqID,
			Line: m.Line, Mask: memaddr.FullMask, Trace: p.trace,
		})
	case proto.MPutM:
		// The write-back record was created synchronously in Send (and
		// externals may have consumed words from it since); only the
		// ReqWB emission pays the port latency.
		tu.sendLLCV(proto.Message{
			Type: proto.ReqWB, Requestor: tu.ID, ReqID: m.ReqID,
			Line: m.Line, Mask: memaddr.FullMask, HasData: true, Data: m.Data,
		})
	case proto.MInvAck:
		if tu.internalInvs[m.ReqID] {
			delete(tu.internalInvs, m.ReqID)
			return
		}
		tu.sendLLCV(proto.Message{
			Type: proto.InvAck, Requestor: tu.ID, ReqID: m.ReqID,
			Line: m.Line, Mask: m.Mask, Trace: m.Trace,
		})
	case proto.MWBData:
		probe, ok := tu.probes[m.ReqID]
		if !ok {
			panic("core: TU got WBData for unknown probe")
		}
		delete(tu.probes, m.ReqID)
		tu.probeDone(probe, m)
		tu.probePool.Put(probe)
	case proto.MDataS, proto.MDataM:
		// Duplicate copies of probe responses addressed to ourselves;
		// MWBData carries everything the TU needs.
		if _, ok := tu.probes[m.ReqID]; !ok {
			panic("core: TU got stray data response from L1")
		}
	default:
		panic("core: TU cannot translate L1 message " + m.Type.String())
	}
}

// HandleMessage implements noc.Handler for network-side traffic.
func (tu *MESITU) HandleMessage(m *proto.Message) {
	tu.fromNetQ.Post(m)
}

func (tu *MESITU) fromNet(m *proto.Message) {
	// Flow facts (spandex-graph): external requests that need data are
	// parked behind an in-flight grant (tuPending.deferred) or probe
	// (tuProbe.afterward); both waits resolve through responses the TU
	// consumes immediately — LLC grants and L1 probe completions.
	//
	//spandex:flow queue ReqV,ReqS,ReqWT,ReqO,ReqOData
	//spandex:flow wait grant awaits=RspS,RspOData,RspV,NackV via=ReqS,ReqOData opener=any
	//spandex:flow wait probe awaits=MDataS,MDataM,MWBData,MInvAck via=MFwdGetS,MFwdGetM,MInv opener=any
	switch m.Type {
	case proto.RspS:
		tu.handleGrantPart(m, false)
	case proto.RspOData:
		tu.handleGrantPart(m, true)
	case proto.RspV:
		// Only an option-2 ReqS produces RspV parts for this TU.
		if p, ok := tu.pend[m.Line]; ok {
			p.opt2 = true
		}
		tu.handleGrantPart(m, false)
	case proto.NackV:
		tu.handleOpt2Nack(m)
	case proto.RspWB:
		if wb, ok := tu.wbs[m.Line]; ok {
			wb.mask &^= m.Mask
			if wb.mask == 0 {
				delete(tu.wbs, m.Line)
				tu.wbPool.Put(wb)
			}
		}
		tu.l1V(proto.Message{
			Type: proto.MAckWB, Src: tu.ID, Requestor: tu.ID,
			ReqID: m.ReqID, Line: m.Line, Mask: memaddr.FullMask,
		})
	case proto.Inv:
		if p, ok := tu.pend[m.Line]; ok && p.kind == pendS {
			p.invalidated = true
		}
		tu.l1V(proto.Message{
			Type: proto.MInv, Src: tu.ID, Requestor: tu.ID,
			ReqID: m.ReqID, Line: m.Line, Mask: m.Mask,
		})
	case proto.ReqV, proto.ReqO, proto.ReqOData, proto.ReqWT, proto.ReqS, proto.RvkO:
		tu.handleExternal(m)
	default:
		panic("core: TU cannot handle " + m.Type.String())
	}
}

// handleOpt2Nack retries a Nacked forwarded ReqV once, then escalates the
// starving words to ReqO+data (paper §III-C3) — only option-2 reads can be
// Nacked, since options (1) and (3) never forward ReqV.
func (tu *MESITU) handleOpt2Nack(m *proto.Message) {
	p, ok := tu.pend[m.Line]
	if !ok {
		return
	}
	fresh := m.Mask &^ p.retried &^ p.arrived
	if fresh != 0 {
		p.retried |= fresh
		tu.st.Inc("tu.nack_retry", 1)
		tu.sendLLCV(proto.Message{
			Type: proto.ReqS, Requestor: tu.ID, ReqID: p.l1ReqID,
			Line: m.Line, Mask: fresh, Trace: p.trace,
		})
	}
	escalate := (m.Mask & p.retried &^ p.arrived &^ p.escalated) & ^fresh
	if escalate != 0 {
		p.escalated |= escalate
		tu.st.Inc("tu.nack_escalate", 1)
		tu.sendLLCV(proto.Message{
			Type: proto.ReqOData, Requestor: tu.ID, ReqID: p.l1ReqID,
			Line: m.Line, Mask: escalate, Trace: p.trace,
		})
	}
}

// handleGrantPart coalesces partial grant responses (which may come from
// the LLC and several previous owners) into a single line grant.
func (tu *MESITU) handleGrantPart(m *proto.Message, owned bool) {
	p, ok := tu.pend[m.Line]
	if !ok {
		return
	}
	fresh := m.Mask &^ p.arrived
	p.arrived |= fresh
	p.data.Merge(&m.Data, fresh)
	if owned {
		p.owned |= fresh
	}
	if p.arrived != memaddr.FullMask {
		return
	}
	delete(tu.pend, m.Line)

	var grant proto.MsgType
	switch {
	case p.kind == pendM:
		grant = proto.MDataM
	case p.owned == memaddr.FullMask && !p.opt2 && !p.invalidated:
		// ReqS answered via option (3): exclusive ownership (paper §IV:
		// "similar to MESI's response to a Shared request with Exclusive
		// state").
		grant = proto.MDataE
	default:
		grant = proto.MDataS
	}
	tu.l1V(proto.Message{
		Type: grant, Src: tu.ID, Requestor: tu.ID, ReqID: p.l1ReqID,
		Line: m.Line, Mask: memaddr.FullMask, HasData: true, Data: p.data,
		Trace: p.trace,
	})

	if p.opt2 || p.invalidated {
		// Option (2) contract — or a grant an Inv overtook: downgrade to
		// Invalid after the read is satisfied (the waiting loads completed
		// off the grant above), and release any words we were left owning.
		id := tu.nextReq()
		tu.internalInvs[id] = true
		tu.l1V(proto.Message{
			Type: proto.MInv, Src: tu.ID, Requestor: tu.ID, ReqID: id,
			Line: m.Line, Mask: memaddr.FullMask,
		})
		tu.writeBack(m.Line, p.owned, p.data)
	}

	if p.downgraded != 0 {
		// Case 2 epilogue: the line must end Invalid; write back every
		// word that received no downgrade request (paper §III-D). The
		// deferred externals resume once the write-back record exists.
		id := tu.probe(m.Line, proto.MFwdGetM, nil, p.downgraded)
		// Copy, not alias: p (and its deferred backing array) returns to
		// the pool now, while the probe's queue lives on.
		pr := tu.probes[id]
		pr.afterward = append(pr.afterward, p.deferred...)
		tu.pendPool.Put(p)
		return
	}
	for i := range p.deferred {
		tu.fromNet(&p.deferred[i])
	}
	tu.pendPool.Put(p)
}

// probe synthesizes a MESI-native probe so the unmodified cache performs
// the downgrade; the response returns through Send as MWBData.
func (tu *MESITU) probe(line memaddr.LineAddr, typ proto.MsgType, orig *proto.Message, downgraded memaddr.WordMask) uint64 {
	id := tu.nextReq()
	pr := tu.probePool.Get()
	*pr = tuProbe{downgraded: downgraded, afterward: pr.afterward[:0]}
	if orig != nil {
		pr.orig, pr.hasOrig = *orig, true
	}
	tu.probes[id] = pr
	tu.probeLines[line] = id
	tu.st.Inc("tu.probe", 1)
	tu.l1V(proto.Message{
		Type: typ, Src: tu.ID, Requestor: tu.ID, ReqID: id,
		Line: line, Mask: memaddr.FullMask,
	})
	return id
}

// probeDone finishes an external request once the cache surrendered the
// line (wb carries the line data), then replays externals that queued
// behind the probe — by then the write-back record (if any) exists.
func (tu *MESITU) probeDone(p *tuProbe, wb *proto.Message) {
	delete(tu.probeLines, wb.Line)
	defer func() {
		for i := range p.afterward {
			tu.handleExternal(&p.afterward[i])
		}
	}()
	if !p.hasOrig {
		// Case-2 cleanup: write back the words that were not downgraded.
		rest := memaddr.FullMask &^ p.downgraded
		tu.writeBack(wb.Line, rest, wb.Data)
		return
	}
	m := &p.orig
	rest := memaddr.FullMask &^ m.Mask
	switch m.Type {
	case proto.ReqO:
		tu.respond(m, proto.RspO, m.Mask, nil)
		tu.writeBack(m.Line, rest, wb.Data)
	case proto.ReqOData:
		tu.respond(m, proto.RspOData, m.Mask, &wb.Data)
		tu.writeBack(m.Line, rest, wb.Data)
	case proto.ReqWT:
		// The writer's data is already home at the LLC (Fig. 1d); ack the
		// requestor and write back the untouched words.
		tu.respond(m, proto.RspWT, m.Mask, nil)
		tu.writeBack(m.Line, rest, wb.Data)
	case proto.ReqS:
		// M→S downgrade: data to the reader, write-back to the LLC. The
		// full line's ownership clears at the LLC.
		tu.respond(m, proto.RspS, m.Mask, &wb.Data)
		tu.sendLLCV(proto.Message{
			Type: proto.RspRvkO, Requestor: m.Requestor, ReqID: m.ReqID,
			Line: m.Line, Mask: memaddr.FullMask, HasData: true, Data: wb.Data,
			Trace: m.Trace,
		})
	case proto.RvkO:
		tu.sendLLCV(proto.Message{
			Type: proto.RspRvkO, Requestor: m.Requestor, ReqID: m.ReqID,
			Line: m.Line, Mask: memaddr.FullMask, HasData: true, Data: wb.Data,
			Trace: m.Trace,
		})
	default:
		panic("core: TU probe for " + m.Type.String())
	}
}

// writeBack sends the masked words home and records them until acked.
func (tu *MESITU) writeBack(line memaddr.LineAddr, mask memaddr.WordMask, data memaddr.LineData) {
	if mask == 0 {
		return
	}
	if wb, ok := tu.wbs[line]; ok {
		wb.mask |= mask
		wb.data.Merge(&data, mask)
	} else {
		wb := tu.wbPool.Get()
		*wb = tuWB{mask: mask, data: data}
		tu.wbs[line] = wb
	}
	tu.sendLLCV(proto.Message{
		Type: proto.ReqWB, Requestor: tu.ID, ReqID: tu.nextReq(),
		Line: line, Mask: mask, HasData: true, Data: data,
	})
}

func (tu *MESITU) respond(m *proto.Message, typ proto.MsgType, mask memaddr.WordMask, data *memaddr.LineData) {
	rsp := proto.Message{
		Type: typ, Dst: m.Requestor, Requestor: m.Requestor, ReqID: m.ReqID,
		Line: m.Line, Mask: mask, Trace: m.Trace,
	}
	if data != nil {
		rsp.HasData = true
		rsp.Data = *data
	}
	tu.sendNetV(rsp)
}

// handleExternal routes a forwarded request or probe by the line's current
// condition (paper §III-D cases 1-3).
//
// Words still covered by an unacknowledged write-back record are always
// served from that record first: the LLC's RspWB precedes any forward that
// could concern a newer ownership epoch (point-to-point FIFO), so a live
// record proves the forward targets the epoch being written back. Checking
// the pending-request state first instead can deadlock — the forward would
// wait on our grant while our grant waits, through the LLC, on this very
// response.
func (tu *MESITU) handleExternal(m *proto.Message) {
	if wb, ok := tu.wbs[m.Line]; ok && m.Mask&wb.mask != 0 {
		rest := m.Mask &^ wb.mask
		sub := *m
		sub.Mask = m.Mask & wb.mask
		tu.fromWBRecord(&sub, wb)
		if rest != 0 {
			sub = *m
			sub.Mask = rest
			tu.handleExternal(&sub)
		}
		return
	}
	if id, ok := tu.probeLines[m.Line]; ok {
		pr := tu.probes[id]
		pr.afterward = append(pr.afterward, *m)
		return
	}
	if p, ok := tu.pend[m.Line]; ok {
		if p.kind == pendM && (m.Type == proto.ReqO || m.Type == proto.ReqWT) {
			// Case 2: ownership-only downgrades are answered immediately.
			typ := proto.RspO
			if m.Type == proto.ReqWT {
				typ = proto.RspWT
			}
			p.downgraded |= m.Mask
			tu.respond(m, typ, m.Mask, nil)
			tu.st.Inc("tu.case2_immediate", 1)
			return
		}
		// Data-requiring requests wait for the grant.
		p.deferred = append(p.deferred, *m)
		tu.st.Inc("tu.case2_deferred", 1)
		return
	}
	_, st := tu.l1.PeekLine(m.Line)
	if st == mesi.M || st == mesi.E {
		if m.Type == proto.ReqV {
			// ReqV changes no state at the owning core (paper §III-C3).
			// Respond with the whole line: "the responding device may
			// include any available up-to-date data in the line".
			data, _ := tu.l1.PeekLine(m.Line)
			tu.respond(m, proto.RspV, memaddr.FullMask, &data)
			return
		}
		fwd := proto.MFwdGetM
		if m.Type == proto.ReqS {
			fwd = proto.MFwdGetS
		}
		tu.probe(m.Line, fwd, m, 0)
		return
	}
	// Stable state other than expected: only ReqV may arrive (the line
	// moved on before the forward landed) and must be Nacked (§III-C3).
	if m.Type == proto.ReqV {
		tu.st.Inc("tu.nack_sent", 1)
		tu.respond(m, proto.NackV, m.Mask, nil)
		return
	}
	panic("core: TU external " + m.Type.String() + " for line in state " + st.String())
}

// fromWBRecord answers externals for a line whose write-back is in flight
// (case 3); downgrades complete the record locally.
func (tu *MESITU) fromWBRecord(m *proto.Message, wb *tuWB) {
	avail := m.Mask & wb.mask
	missing := m.Mask &^ wb.mask
	la := m.Line
	clear := func(mask memaddr.WordMask) {
		wb.mask &^= mask
		if wb.mask == 0 {
			delete(tu.wbs, la)
			tu.wbPool.Put(wb)
		}
	}
	switch m.Type {
	case proto.ReqV:
		if avail != 0 {
			tu.respond(m, proto.RspV, avail, &wb.data)
		}
		if missing != 0 {
			tu.respond(m, proto.NackV, missing, nil)
		}
	case proto.ReqO:
		tu.respond(m, proto.RspO, m.Mask, nil)
		clear(m.Mask)
	case proto.ReqOData:
		tu.respond(m, proto.RspOData, m.Mask, &wb.data)
		clear(m.Mask)
	case proto.ReqWT:
		tu.respond(m, proto.RspWT, m.Mask, nil)
		clear(m.Mask)
	case proto.ReqS:
		tu.respond(m, proto.RspS, m.Mask, &wb.data)
		tu.sendLLCV(proto.Message{
			Type: proto.RspRvkO, Requestor: m.Requestor, ReqID: m.ReqID,
			Line: m.Line, Mask: m.Mask, HasData: true, Data: wb.data,
			Trace: m.Trace,
		})
		clear(m.Mask)
	case proto.RvkO:
		tu.sendLLCV(proto.Message{
			Type: proto.RspRvkO, Requestor: m.Requestor, ReqID: m.ReqID,
			Line: m.Line, Mask: m.Mask, HasData: true, Data: wb.data,
			Trace: m.Trace,
		})
		clear(m.Mask)
	default:
		panic("core: TU WB-record external " + m.Type.String())
	}
}

// HoldsExternalFor reports whether the TU is internally holding any
// external whose eventual handling can emit a direct device→device
// response to dev: a data-requiring forward deferred behind an in-flight
// grant (tuPending.deferred), the original external of an in-flight
// synthesized probe, or an external that queued behind such a probe. The
// model checker's partial-order reduction consults this between actions —
// while it holds, a delivery to *this* device can release a fresh message
// onto a previously empty FIFO toward dev, so dev's action group is not
// persistent (DESIGN.md §10).
func (tu *MESITU) HoldsExternalFor(dev proto.NodeID) bool {
	//spandex:maprange any-exists query; iteration order cannot change the boolean result
	for _, p := range tu.pend {
		for i := range p.deferred {
			if p.deferred[i].Requestor == dev {
				return true
			}
		}
	}
	//spandex:maprange any-exists query; iteration order cannot change the boolean result
	for _, pr := range tu.probes {
		if pr.hasOrig && pr.orig.Requestor == dev {
			return true
		}
		for i := range pr.afterward {
			if pr.afterward[i].Requestor == dev {
				return true
			}
		}
	}
	return false
}
