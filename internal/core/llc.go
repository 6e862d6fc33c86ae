// Package core implements the paper's primary contribution: the Spandex
// LLC (paper §III-B) and the per-device translation units (§III-D) that
// let MESI, GPU-coherence and DeNovo caches — and future devices — share
// one flat coherence interface.
//
// The LLC tracks four stable states. Invalid/Valid/Shared are line-level
// (two bits per line), while Owned is tracked per word with the owning
// device's ID (paper: the owner ID is stored in the data field of owned
// words; we model that with an explicit owner array and charge the storage
// overhead in documentation rather than bytes). In the common case requests
// are handled immediately with no blocking state; the only blocking
// transitions are (1) writes to Shared lines, which wait for sharer
// invalidations, (2) ReqS/ReqWT+data to remotely-owned words, which wait
// for the owner's write-back, and (3) structural line fetches/evictions.
package core

import (
	"fmt"
	"math/bits"
	"strings"

	"spandex/internal/cache"
	"spandex/internal/detsort"
	"spandex/internal/memaddr"
	"spandex/internal/noc"
	"spandex/internal/obs"
	"spandex/internal/proto"
	"spandex/internal/sim"
	"spandex/internal/stats"
)

// noOwner marks an un-owned word in the owner array.
const noOwner = -1

// cacheEntry abbreviates the LLC's array entry type.
type cacheEntry = cache.Entry[llcLine]

// llcLine is the Spandex LLC's per-line state.
type llcLine struct {
	// shared is the line-level S state (writer-invalidated sharers exist).
	shared bool
	// fetching marks a line whose data is still arriving from memory.
	fetching bool
	// sharers is a bitset of device indices holding the line in S.
	sharers uint64
	// ownedMask marks words owned by some device.
	ownedMask memaddr.WordMask
	// owner[i] is the device index owning word i (valid iff ownedMask bit).
	owner [memaddr.WordsPerLine]int8
	// data holds the up-to-date value of every non-owned word.
	data memaddr.LineData
	// dirty marks words modified relative to DRAM.
	dirty memaddr.WordMask
}

// txnKind classifies an in-flight blocking transaction on a line.
type txnKind uint8

const (
	// txnFetch: line being allocated and fetched from memory.
	txnFetch txnKind = iota
	// txnInv: waiting for sharer invalidation acks.
	txnInv
	// txnRvk: waiting for an owner's write-back (RvkO or forwarded ReqS).
	txnRvk
	// txnEvict: victim line being revoked/flushed before replacement.
	txnEvict
)

func (k txnKind) String() string {
	switch k {
	case txnFetch:
		return "fetch"
	case txnInv:
		return "inv"
	case txnRvk:
		return "rvk"
	case txnEvict:
		return "evict"
	}
	return "txn?"
}

// llcTxn is one blocking transaction. While it exists, new requests to the
// same line queue in waiting and are re-dispatched in order on completion.
type llcTxn struct {
	kind    txnKind
	line    memaddr.LineAddr
	waiting []proto.Message

	// origin is the request that started a txnInv/txnRvk, completed when
	// the transaction resolves. Valid only for those kinds (txns are
	// pool-recycled, so a stale origin may linger on other kinds).
	origin proto.Message

	// pendingAcks counts outstanding InvAcks (txnInv).
	pendingAcks int
	// rvkMask is the set of words whose ownership must clear (txnRvk).
	rvkMask memaddr.WordMask
	// serveMask: words of a blocked ReqS the LLC itself must answer once
	// their (non-MESI) owners have written back.
	serveMask memaddr.WordMask

	// evict bookkeeping (txnEvict): the fetch transaction to resume.
	resume func()
	// rvkID stamps a txnEvict's RvkO probes so late RspRvkOs from an
	// earlier eviction epoch of the same line cannot be mistaken for
	// answers to this one (txnRvk probes are identified by origin's
	// Requestor/ReqID instead).
	rvkID uint64
}

// newTxn takes a transaction from the pool and resets it for kind/line,
// keeping the waiting queue's backing array from its previous life. The
// caller fills kind-specific fields (origin, masks, resume) afterwards.
func (l *LLC) newTxn(kind txnKind, line memaddr.LineAddr) *llcTxn {
	t := l.txnPool.Get()
	*t = llcTxn{kind: kind, line: line, waiting: t.waiting[:0]}
	return t
}

// freeTxn returns a resolved transaction to the pool. It must only be
// called after the transaction is out of l.txns and fully drained: the
// next newTxn reuses both the struct and its queue memory.
func (l *LLC) freeTxn(t *llcTxn) { l.txnPool.Put(t) }

// Config holds the Spandex LLC parameters.
type Config struct {
	SizeBytes int
	Ways      int
	// AccessLatency is charged to every request the LLC processes.
	AccessLatency sim.Time
	// ReqSOption2 selects Table III's option (2) for every ReqS: treat it
	// as a ReqV, with the requesting cache downgrading to Invalid after
	// the read. It avoids Shared-state complexity entirely but precludes
	// requestor-side reuse; the paper's evaluation uses options (1)/(3)
	// (the default here), and this knob exists for the ablation the
	// paper's discussion invites.
	ReqSOption2 bool
	// BankStride is the bank count of the address-interleaved LLC this
	// instance is one bank of. A bank only ever sees lines whose index is
	// congruent to its bank number mod the stride, so set selection
	// divides the line index by it first (see cache.Array.SetIndexStride).
	// 0 or 1 means a single flat LLC.
	BankStride int
	// BankIndex is this bank's position in the interleaved array (0 when
	// BankStride <= 1). A line is homed here iff
	// proto.BankOf(line, BankStride) == BankIndex.
	BankIndex int
}

// LLC is the Spandex last-level cache and coherence point.
type LLC struct {
	ID    proto.NodeID
	MemID proto.NodeID

	eng *sim.Engine
	net *noc.Network
	st  *stats.Stats
	cfg Config

	array *cache.Array[llcLine]
	txns  map[memaddr.LineAddr]*llcTxn

	// txnPool recycles llcTxn structs (and their waiting queues' backing
	// arrays) across blocking transactions; see newTxn/freeTxn.
	txnPool sim.Pool[llcTxn]

	devices []proto.NodeID

	// out is the sendV scratch slot (see sendV).
	out    proto.Message
	devIdx map[proto.NodeID]int
	isMESI []bool

	checker  *Checker
	coverage *TransitionCoverage
	obs      *obs.Recorder
	// audits counts per-transition checks, resolved on first increment.
	audits stats.Handle

	// rvkSeq numbers eviction revocation probes (see llcTxn.rvkID).
	rvkSeq uint64

	// dispq defers each delivered message by AccessLatency into dispatch
	// (pooled; see noc.DelayQueue).
	dispq *noc.DelayQueue

	// allocWait holds lines whose fetch is parked because every frame in
	// the target set is mid-transaction; txnResolved wakes them (see
	// retryAllocWaiters). allocWakeup coalesces wakeup events.
	allocWait   []memaddr.LineAddr
	allocWakeup bool
}

// NewLLC creates a Spandex LLC endpoint.
func NewLLC(id, memID proto.NodeID, eng *sim.Engine, net *noc.Network, st *stats.Stats, cfg Config) *LLC {
	l := &LLC{
		ID: id, MemID: memID, eng: eng, net: net, st: st, cfg: cfg,
		array:  cache.NewArray[llcLine](cfg.SizeBytes, cfg.Ways),
		txns:   make(map[memaddr.LineAddr]*llcTxn),
		devIdx: make(map[proto.NodeID]int),
		audits: st.Handle("check.transition"),
	}
	l.array.SetIndexStride(cfg.BankStride)
	l.dispq = noc.NewDelayQueue(eng, cfg.AccessLatency, l.dispatch)
	net.Register(id, l)
	return l
}

// RegisterDevice declares a device endpoint attached to the LLC. isMESI
// devices trigger the ReqS option-(1) policy when they own target words
// (paper §III-B "Supporting Shared State").
func (l *LLC) RegisterDevice(id proto.NodeID, isMESI bool) {
	if _, ok := l.devIdx[id]; ok {
		panic("core: device registered twice")
	}
	if len(l.devices) >= 64 {
		panic("core: more than 64 devices")
	}
	l.devIdx[id] = len(l.devices)
	l.devices = append(l.devices, id)
	l.isMESI = append(l.isMESI, isMESI)
}

// HomesLine reports whether this LLC instance is the target line's home
// bank (always true for a flat single-bank LLC).
func (l *LLC) HomesLine(line memaddr.LineAddr) bool {
	return l.cfg.BankStride <= 1 || proto.BankOf(line, l.cfg.BankStride) == l.cfg.BankIndex
}

// SetChecker installs an invariant checker consulted on every transition.
func (l *LLC) SetChecker(c *Checker) { l.checker = c }

// SetObserver installs the observability recorder; nil disables
// instrumentation. The LLC emits EvLLCBlock when a tracked request parks
// behind (or starts) a blocking transaction, EvLLCUnblock when it
// resumes, EvLLCForward on owner indirection, and EvOccupancy samples of
// the live blocking-transaction count.
func (l *LLC) SetObserver(r *obs.Recorder) { l.obs = r }

// blockEv/unblockEv/txnOcc are the nil-guarded emission helpers; callers
// check l.obs != nil before calling so the disabled path is one compare.
func (l *LLC) blockEv(m *proto.Message) {
	l.obs.Emit(obs.Event{At: l.eng.Now(), Kind: obs.EvLLCBlock,
		Node: l.ID, Trace: m.Trace, Msg: m})
}

func (l *LLC) unblockEv(m *proto.Message) {
	l.obs.Emit(obs.Event{At: l.eng.Now(), Kind: obs.EvLLCUnblock,
		Node: l.ID, Trace: m.Trace, Msg: m})
}

func (l *LLC) txnOcc() {
	l.obs.Emit(obs.Event{At: l.eng.Now(), Kind: obs.EvOccupancy,
		Node: l.ID, Res: "llc.txns", Arg: uint64(len(l.txns))})
}

// conflictEv/evictEv/revokeEv/ownerEv/sharerEv feed the metrics engine's
// contention telemetry: set conflicts, evictions, revoked words, word-
// ownership moves, and sharer-set churn. Same nil-guard convention.
func (l *LLC) conflictEv(line memaddr.LineAddr) {
	l.obs.Emit(obs.Event{At: l.eng.Now(), Kind: obs.EvLLCConflict,
		Node: l.ID, Addr: memaddr.Addr(line), Arg: uint64(l.array.SetIndex(line))})
}

func (l *LLC) evictEv(line memaddr.LineAddr) {
	l.obs.Emit(obs.Event{At: l.eng.Now(), Kind: obs.EvLLCEvict,
		Node: l.ID, Addr: memaddr.Addr(line), Arg: uint64(l.array.SetIndex(line))})
}

func (l *LLC) revokeEv(line memaddr.LineAddr, words memaddr.WordMask) {
	if words == 0 {
		return
	}
	l.obs.Emit(obs.Event{At: l.eng.Now(), Kind: obs.EvLLCRevoke,
		Node: l.ID, Addr: memaddr.Addr(line), Arg: uint64(words.Count())})
}

func (l *LLC) ownerEv(line memaddr.LineAddr, words memaddr.WordMask) {
	if words == 0 {
		return
	}
	l.obs.Emit(obs.Event{At: l.eng.Now(), Kind: obs.EvLineOwner,
		Node: l.ID, Addr: memaddr.Addr(line), Arg: uint64(words.Count())})
}

func (l *LLC) sharerEv(line memaddr.LineAddr, flipped int) {
	if flipped == 0 {
		return
	}
	l.obs.Emit(obs.Event{At: l.eng.Now(), Kind: obs.EvLineSharer,
		Node: l.ID, Addr: memaddr.Addr(line), Arg: uint64(flipped)})
}

// StuckReport describes every in-flight blocking transaction, one line
// each: kind, line address, outstanding acks, unrevoked words, and the
// queued request types. When a run aborts at MaxTime this is the state
// that tells a deadlocked protocol cycle apart from a merely slow run —
// the fuzzer folds it into the abort error so a minimized deadlock names
// the transactions that wedged.
func (l *LLC) StuckReport() string {
	var b strings.Builder
	for _, line := range detsort.Keys(l.txns) {
		t := l.txns[line]
		fmt.Fprintf(&b, "  llc txn %s line %#x", t.kind, uint64(line))
		if t.pendingAcks != 0 {
			fmt.Fprintf(&b, " pendingAcks=%d", t.pendingAcks)
		}
		if t.rvkMask != 0 {
			fmt.Fprintf(&b, " rvkMask=%#x", uint64(t.rvkMask))
		}
		if len(t.waiting) > 0 {
			fmt.Fprintf(&b, " waiting=[")
			for i, w := range t.waiting {
				if i > 0 {
					b.WriteString(" ")
				}
				fmt.Fprintf(&b, "%s from dev%d", w.Type, l.dev(w.Requestor))
			}
			b.WriteString("]")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// afterTransition runs the configured invariant checks once a message has
// finished mutating a line's state.
func (l *LLC) afterTransition(line memaddr.LineAddr) {
	if l.checker == nil {
		return
	}
	l.checker.CheckLine(l, line)
	if l.checker.CheckEveryTransition {
		l.audits.Inc(1)
		l.checker.CheckTransition(l, line)
	}
}

func (l *LLC) dev(id proto.NodeID) int {
	i, ok := l.devIdx[id]
	if !ok {
		panic(fmt.Sprintf("core: message from unregistered device %d", id))
	}
	return i
}

// HandleMessage implements noc.Handler. Requests are charged the LLC
// access latency and then processed atomically in arrival order.
func (l *LLC) HandleMessage(m *proto.Message) {
	l.dispq.Post(m)
	if l.obs != nil {
		l.obs.Emit(obs.Event{At: l.eng.Now(), Kind: obs.EvOccupancy,
			Node: l.ID, Res: "llc.reqq", Arg: uint64(l.dispq.Depth())})
	}
}

// dispatch routes a message, queuing requests that hit a blocked line.
func (l *LLC) dispatch(m *proto.Message) {
	// Proofs for (state, message) pairs that can never occur, consumed by
	// spandex-graph -diff (gap classification) and its flow checks
	// (completeness exceptions). "Plain SO" below means SO with no open
	// transaction on the line.
	//
	//spandex:unreachable ReqV,ReqS,ReqWT,ReqO,ReqWTData,ReqOData,ReqWB,RspRvkO at=SO plain SO never exists at rest: Shared is only granted by line-granularity MESI ReqS, whose option-(1) revocation (SO+rvk) covers every owned word and resolves to S, writes clear sharing before granting ownership, and requests queue while the revocation is open
	//spandex:unreachable InvAck,ReqWB,RspRvkO at=O+inv txnInv opens via invalidateSharers on a shared line, and a shared line at rest has no owned words (plain SO is unreachable), so a sharer invalidation always runs with base state V — O+inv never occurs
	//spandex:unreachable ReqWB,RspRvkO at=SO+evict evict() only captures victims with no open transaction, and plain SO never exists at rest, so an eviction never starts from SO
	//spandex:unreachable InvAck at=I|I+fetch|F+fetch|V|S|O|SO|O+rvk|SO+rvk|O+evict|SO+evict every Inv is solicited by the open txnInv/txnEvict on its line and counted in pendingAcks, and the transaction cannot resolve before the last ack arrives, so an InvAck always finds V+inv, O+inv or V+evict
	//spandex:unreachable MemReadRsp at=I|I+fetch|V|S|O|SO|V+inv|O+inv|O+rvk|SO+rvk|V+evict|O+evict|SO+evict MemRead is issued exactly once per fetch, after the frame is installed (F+fetch), and a fetching line is never chosen as an eviction victim, so the response always finds F+fetch
	//
	// Flow facts for the whole-system checker (spandex-graph). Device
	// requests queue behind any open transaction; completions never do.
	// Each transaction suffix waits for the listed responses, supplied by
	// the probes/reads sent when it opened. Forwards and revocations only
	// target owner-capable device kinds (gpucoh never takes ownership),
	// and the full-line MESI ReqS is only ever forwarded to a MESI TU —
	// denovo owners are revoked instead (option 1).
	//
	//spandex:flow queue ReqV,ReqS,ReqWT,ReqO,ReqWTData,ReqOData at=I+fetch|F+fetch|V+inv|O+inv|O+rvk|SO+rvk|V+evict|O+evict|SO+evict
	//spandex:flow wait +fetch awaits=MemReadRsp via=MemRead
	//spandex:flow wait +inv awaits=InvAck via=Inv
	//spandex:flow wait +rvk awaits=RspRvkO,ReqWB via=RvkO
	//spandex:flow wait +evict awaits=RspRvkO,InvAck via=RvkO,Inv opener=any
	//spandex:flow emit ReqV dst=core-mesitu,denovo-l1
	//spandex:flow emit ReqS dst=core-mesitu
	//spandex:flow emit ReqWT dst=core-mesitu,denovo-l1
	//spandex:flow emit ReqO dst=core-mesitu,denovo-l1
	//spandex:flow emit ReqOData dst=core-mesitu,denovo-l1
	//spandex:flow emit RvkO dst=core-mesitu,denovo-l1
	switch m.Type {
	case proto.RspRvkO:
		l.handleRspRvkO(m)
		return
	case proto.InvAck:
		l.handleInvAck(m)
		return
	case proto.MemReadRsp:
		l.handleMemRsp(m)
		return
	case proto.ReqWB:
		// Write-backs are never queued: they may be exactly what a txnRvk
		// is waiting for, and the writer retains data until acked, so
		// processing them immediately is always safe.
		l.handleReqWB(m)
		return
	case proto.ReqV, proto.ReqS, proto.ReqWT, proto.ReqO, proto.ReqWTData, proto.ReqOData:
		// Device requests fall through to the blocked-line queue below.
	default:
		panic("core: LLC cannot handle " + m.Type.String())
	}

	if t, ok := l.txns[m.Line]; ok {
		t.waiting = append(t.waiting, *m)
		l.st.Inc("llc.queued", 1)
		if l.obs != nil {
			l.blockEv(m)
		}
		return
	}

	e := l.array.Lookup(m.Line)
	if e == nil {
		l.startFetch(m)
		return
	}
	l.process(e, m)
}

// process handles a request against a present, unblocked line.
func (l *LLC) process(e *cache.Entry[llcLine], m *proto.Message) {
	l.observe(m)
	switch m.Type {
	case proto.ReqV:
		l.handleReqV(e, m)
	case proto.ReqS:
		l.handleReqS(e, m)
	case proto.ReqWT:
		l.handleReqWT(e, m)
	case proto.ReqO:
		l.handleReqO(e, m)
	case proto.ReqWTData:
		l.handleReqWTData(e, m)
	case proto.ReqOData:
		l.handleReqOData(e, m)
	default:
		panic("core: LLC cannot handle " + m.Type.String())
	}
	l.afterTransition(m.Line)
}

// send transmits a message from the LLC.
func (l *LLC) send(m *proto.Message) {
	m.Src = l.ID
	l.net.Send(m)
}

// sendV transmits a by-value message. Every network/port Send copies the
// message synchronously before anything downstream can run, so a single
// scratch slot per sender is safe and avoids a heap allocation per send
// (the &proto.Message{...} literal idiom escapes through the Port
// interface).
func (l *LLC) sendV(m proto.Message) {
	l.out = m
	l.send(&l.out)
}

// respond sends a response type for the masked words of m's line.
func (l *LLC) respond(m *proto.Message, typ proto.MsgType, mask memaddr.WordMask, withData bool, e *cache.Entry[llcLine]) {
	if mask == 0 {
		return
	}
	rsp := proto.Message{
		Type: typ, Dst: m.Requestor, Requestor: m.Requestor, ReqID: m.ReqID,
		Line: m.Line, Mask: mask, Trace: m.Trace,
	}
	if withData {
		rsp.HasData = true
		rsp.Data = e.State.data
	}
	l.sendV(rsp)
}

// ownerWords pairs a device index with the words it owns in one line.
type ownerWords struct {
	owner int
	words memaddr.WordMask
}

// ownerBuf is the caller-provided backing for ownersOf: sized for one
// entry per word (the worst case), it lives on the caller's stack so
// grouping owners does not allocate.
type ownerBuf [memaddr.WordsPerLine]ownerWords

// ownersOf groups the owned words of mask by owning device index, in
// ascending owner order (deterministic message emission). Results are
// appended into buf and the filled prefix returned.
func ownersOf(st *llcLine, mask memaddr.WordMask, buf *ownerBuf) []ownerWords {
	owned := mask & st.ownedMask
	if owned == 0 {
		return nil
	}
	var byOwner [64]memaddr.WordMask
	max := -1
	owned.ForEach(func(i int) {
		o := int(st.owner[i])
		byOwner[o] |= memaddr.MaskOf(i)
		if o > max {
			max = o
		}
	})
	out := buf[:0]
	for o := 0; o <= max; o++ {
		if byOwner[o] != 0 {
			out = append(out, ownerWords{owner: o, words: byOwner[o]})
		}
	}
	return out
}

// forward relays a request to each owner of the masked words, preserving
// the original requestor so owners respond directly (paper Fig. 1c/1d).
func (l *LLC) forward(e *cache.Entry[llcLine], m *proto.Message, typ proto.MsgType, mask memaddr.WordMask) {
	var owb ownerBuf
	for _, ow := range ownersOf(&e.State, mask, &owb) {
		fwd := proto.Message{
			Type: typ, Dst: l.devices[ow.owner],
			Requestor: m.Requestor, ReqID: m.ReqID,
			Line: m.Line, Mask: ow.words,
			Atomic: m.Atomic, Operand: m.Operand, Compare: m.Compare,
		}
		// RvkO forwards belong to a blocking revocation, not owner
		// indirection: the origin's wait is attributed to PhaseBlocked, so
		// the probe itself stays untracked.
		if typ != proto.RvkO {
			fwd.Trace = m.Trace
			if l.obs != nil {
				cp := fwd
				l.obs.Emit(obs.Event{At: l.eng.Now(), Kind: obs.EvLLCForward,
					Node: l.ID, Trace: m.Trace, Msg: &cp})
			}
		} else if l.obs != nil {
			l.revokeEv(m.Line, ow.words)
		}
		l.sendV(fwd)
		l.st.Inc("llc.forwards", 1)
	}
}

// --- request handlers (paper Table III) ---

// handleReqV: no LLC state change ever. Non-owned words answered from the
// LLC copy — including any other non-owned words of the line, implementing
// DeNovo's flexible-granularity responses ("the responding device may
// include any available up-to-date data in the line"). Owned words are
// forwarded to their owners, who respond directly to the requestor.
func (l *LLC) handleReqV(e *cache.Entry[llcLine], m *proto.Message) {
	//spandex:transition ReqV from=V|S|O|SO emits=RspV,ReqV
	st := &e.State
	fromLLC := memaddr.FullMask &^ st.ownedMask
	if m.Mask == 0 {
		panic("core: empty ReqV")
	}
	if m.Mask&^st.ownedMask != 0 {
		l.respond(m, proto.RspV, fromLLC, true, e)
	}
	l.forward(e, m, proto.ReqV, m.Mask&st.ownedMask)
}

// reqSPolicyOption1 decides between ReqS handling options (paper §IV:
// option (1) — grant Shared — if the line is already Shared or any target
// word is owned in a MESI core; otherwise option (3) — treat the request
// as ReqO+data, granting ownership).
func (l *LLC) reqSPolicyOption1(st *llcLine, mask memaddr.WordMask) bool {
	if st.shared {
		return true
	}
	opt1 := false
	(mask & st.ownedMask).ForEach(func(i int) {
		if l.isMESI[st.owner[i]] {
			opt1 = true
		}
	})
	return opt1
}

func (l *LLC) handleReqS(e *cache.Entry[llcLine], m *proto.Message) {
	// Table III, the three ReqS handling options:
	//spandex:transition ReqS from=V|S|O|SO emits=RspV,ReqV
	//spandex:transition ReqS from=V|O to=O emits=RspOData,ReqOData
	//spandex:transition ReqS from=S to=S emits=RspS
	//spandex:transition ReqS from=S|O|SO to=SO+rvk emits=RspS,ReqS,RvkO
	st := &e.State
	if l.cfg.ReqSOption2 {
		// Option (2): answer like a ReqV; the requestor's TU downgrades
		// its cache to Invalid once the read is satisfied, so no Shared
		// state or ownership transfer is needed.
		l.st.Inc("llc.reqs.opt2", 1)
		l.handleReqV(e, m)
		return
	}
	if !l.reqSPolicyOption1(st, m.Mask) {
		// Option (3): grant ownership instead of Shared state.
		l.st.Inc("llc.reqs.opt3", 1)
		l.handleReqOData(e, m)
		return
	}
	l.st.Inc("llc.reqs.opt1", 1)
	oldSharers := st.sharers
	st.shared = true
	st.sharers |= 1 << l.dev(m.Requestor)

	immediate := m.Mask &^ st.ownedMask
	l.respond(m, proto.RspS, immediate, true, e)

	ownedReq := m.Mask & st.ownedMask
	if ownedReq == 0 {
		if l.obs != nil {
			l.sharerEv(m.Line, bits.OnesCount64(st.sharers&^oldSharers))
		}
		return
	}
	// Owned words block the line until ownership clears (Table III:
	// ReqS(1) on O is a blocking transition to S). MESI owners handle a
	// forwarded ReqS natively: they downgrade M→S (joining the sharer
	// set), answer the requestor with RspS, and write back here. Words
	// owned by self-invalidating devices — which have no Shared state to
	// downgrade into — are revoked with RvkO instead, and the LLC answers
	// for them once the write-back lands.
	var mesiOwned, otherOwned memaddr.WordMask
	ownedReq.ForEach(func(i int) {
		if l.isMESI[st.owner[i]] {
			mesiOwned |= memaddr.MaskOf(i)
		} else {
			otherOwned |= memaddr.MaskOf(i)
		}
	})
	var owb ownerBuf
	for _, ow := range ownersOf(st, mesiOwned, &owb) {
		st.sharers |= 1 << ow.owner
	}
	if l.obs != nil {
		l.sharerEv(m.Line, bits.OnesCount64(st.sharers&^oldSharers))
	}
	l.forward(e, m, proto.ReqS, mesiOwned)
	rvkFwd := otherOwned
	if mutSkipRvkOFwd != nil {
		rvkFwd = mutSkipRvkOFwd(rvkFwd)
	}
	l.forward(e, m, proto.RvkO, rvkFwd)
	t := l.newTxn(txnRvk, m.Line)
	t.origin = *m
	t.rvkMask, t.serveMask = ownedReq, otherOwned
	l.txns[m.Line] = t
	l.st.Inc("llc.blocked.rvk", 1)
	if l.obs != nil {
		l.blockEv(m)
		l.txnOcc()
	}
}

// invalidateSharers begins a txnInv for a write request to a Shared line.
// The original message is re-processed once all acks arrive.
func (l *LLC) invalidateSharers(e *cache.Entry[llcLine], m *proto.Message) {
	st := &e.State
	t := l.newTxn(txnInv, m.Line)
	t.origin = *m
	reqIdx := -1
	if i, ok := l.devIdx[m.Requestor]; ok {
		reqIdx = i
	}
	for i := 0; i < len(l.devices); i++ {
		if st.sharers&(1<<i) == 0 || i == reqIdx {
			continue
		}
		t.pendingAcks++
		l.sendV(proto.Message{
			Type: proto.Inv, Dst: l.devices[i], Requestor: l.devices[i],
			Line: m.Line, Mask: memaddr.FullMask,
		})
	}
	// The requestor's own copy (if it was a sharer) upgrades in place;
	// the sharer set clears and the write re-processes once acks arrive.
	if l.obs != nil {
		l.sharerEv(m.Line, bits.OnesCount64(st.sharers))
	}
	st.sharers = 0
	st.shared = false
	if t.pendingAcks == 0 {
		// No remote sharers: proceed immediately.
		l.freeTxn(t)
		l.process(e, m)
		return
	}
	l.txns[m.Line] = t
	l.st.Inc("llc.blocked.inv", 1)
	if l.obs != nil {
		l.blockEv(m)
		l.txnOcc()
	}
}

func (l *LLC) handleReqWT(e *cache.Entry[llcLine], m *proto.Message) {
	//spandex:transition ReqWT from=S|SO to=V+inv|O+inv|V|O emits=Inv
	//spandex:transition ReqWT from=V|O to=V|O emits=RspWT,ReqWT
	st := &e.State
	if st.shared {
		l.invalidateSharers(e, m)
		return
	}
	owned := m.Mask & st.ownedMask
	plain := m.Mask &^ owned

	// Non-owned words: update the LLC copy and respond data-lessly.
	if plain != 0 {
		st.data.Merge(&m.Data, plain)
		st.dirty |= plain
	}
	l.respond(m, proto.RspWT, plain, false, e)

	// Owned words (Table III: ReqWT on O → V, forward ReqWT): the LLC
	// takes the new value immediately, clears ownership, and the old
	// owner — told via the forward — downgrades and acks the requestor
	// directly (paper Fig. 1d).
	if owned != 0 {
		l.forward(e, m, proto.ReqWT, owned)
		st.data.Merge(&m.Data, owned)
		st.dirty |= owned
		st.ownedMask &^= owned
		owned.ForEach(func(i int) { st.owner[i] = noOwner })
		if l.obs != nil {
			l.ownerEv(m.Line, owned)
		}
	}
}

func (l *LLC) handleReqO(e *cache.Entry[llcLine], m *proto.Message) {
	//spandex:transition ReqO from=S|SO to=V+inv|O+inv|O emits=Inv
	//spandex:transition ReqO from=V|O to=O emits=RspO,ReqO
	st := &e.State
	if st.shared {
		l.invalidateSharers(e, m)
		return
	}
	reqIdx := int8(l.dev(m.Requestor))
	owned := m.Mask & st.ownedMask
	// Words the requestor already owns (e.g. replays) need no transfer.
	var self memaddr.WordMask
	owned.ForEach(func(i int) {
		if st.owner[i] == reqIdx {
			self |= memaddr.MaskOf(i)
		}
	})
	transfer := owned &^ self
	plain := m.Mask &^ owned

	// Non-blocking ownership transfer (Table III: ReqO on O → O, fwd ReqO):
	// old owners are told to downgrade and ack the requestor directly.
	l.forward(e, m, proto.ReqO, transfer)
	m.Mask.ForEach(func(i int) { st.owner[i] = reqIdx })
	st.ownedMask |= m.Mask
	if l.obs != nil {
		l.ownerEv(m.Line, transfer|plain)
	}
	// Owned words' LLC copy is stale by definition; mark dirty so eviction
	// write-back fetches from the owner first.
	l.respond(m, proto.RspO, plain|self, false, e)
}

func (l *LLC) handleReqWTData(e *cache.Entry[llcLine], m *proto.Message) {
	//spandex:transition ReqWTData from=S|SO to=V+inv|O+inv|V emits=Inv,RspWTData
	//spandex:transition ReqWTData from=O to=O+rvk emits=RvkO
	//spandex:transition ReqWTData from=V to=V emits=RspWTData
	st := &e.State
	if st.shared {
		l.invalidateSharers(e, m)
		return
	}
	owned := m.Mask & st.ownedMask
	if owned != 0 {
		// Table III: ReqWT+data on O → blocking RvkO to the owner; the
		// update is performed here once up-to-date data returns (Fig. 1b).
		l.forward(e, m, proto.RvkO, owned)
		t := l.newTxn(txnRvk, m.Line)
		t.origin = *m
		t.rvkMask = owned
		l.txns[m.Line] = t
		l.st.Inc("llc.blocked.rvk", 1)
		if l.obs != nil {
			l.blockEv(m)
			l.txnOcc()
		}
		return
	}
	l.performUpdate(e, m)
}

// performUpdate applies a ReqWT+data operation at the LLC and responds
// with the pre-update value (paper §III-A).
func (l *LLC) performUpdate(e *cache.Entry[llcLine], m *proto.Message) {
	st := &e.State
	rsp := proto.Message{
		Type: proto.RspWTData, Dst: m.Requestor, Requestor: m.Requestor,
		ReqID: m.ReqID, Line: m.Line, Mask: m.Mask, HasData: true,
		Trace: m.Trace,
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
			st.dirty |= memaddr.MaskOf(i)
		}
	})
	l.sendV(rsp)
	l.st.Inc("llc.atomics", 1)
}

func (l *LLC) handleReqOData(e *cache.Entry[llcLine], m *proto.Message) {
	//spandex:transition ReqOData from=S|SO to=V+inv|O+inv|O emits=Inv
	//spandex:transition ReqOData from=V|O to=O emits=RspOData,ReqOData
	st := &e.State
	if st.shared {
		l.invalidateSharers(e, m)
		return
	}
	reqIdx := int8(l.dev(m.Requestor))
	owned := m.Mask & st.ownedMask
	var self memaddr.WordMask
	owned.ForEach(func(i int) {
		if st.owner[i] == reqIdx {
			self |= memaddr.MaskOf(i)
		}
	})
	transfer := owned &^ self
	plain := m.Mask &^ owned

	// Old owners hand data and ownership directly to the requestor;
	// no blocking state (paper §II-C / Table III: ReqO+data on O → O).
	// A ReqS resolved via option (3) also lands here; its requestor's TU
	// expects RspOData and grants Exclusive to the MESI cache.
	l.forward(e, m, proto.ReqOData, transfer)
	m.Mask.ForEach(func(i int) { st.owner[i] = reqIdx })
	st.ownedMask |= m.Mask
	if l.obs != nil {
		l.ownerEv(m.Line, transfer|plain)
	}
	if plain|self != 0 {
		l.respond(m, proto.RspOData, plain|self, true, e)
	}
}

// handleReqWB applies a write-back. Words the sender still owns are
// updated; words it no longer owns raced with an ownership transfer and
// are dropped (Table III: "ReqWB from non-owner → —").
func (l *LLC) handleReqWB(m *proto.Message) {
	// From an owner the write-back applies and may resolve a revocation or
	// eviction transaction (emitting the blocked request's response and, on
	// evictions, the victim flush + fetch); from a non-owner — after losing
	// a race with an ownership transfer, invalidation, or eviction, in
	// whatever state the line is in by then — it is dropped and acked.
	//spandex:transition ReqWB from=O|SO|O+rvk|SO+rvk|O+evict|SO+evict|O+inv to=V|S|O|SO|I|F+fetch emits=RspWB,RspS,RspWTData,MemWrite,MemRead
	//spandex:transition ReqWB from=V|S|I|I+fetch|F+fetch|V+inv|V+evict emits=RspWB
	l.observe(m)
	e := l.array.Peek(m.Line)
	senderIdx := int8(l.dev(m.Src))
	if e != nil {
		st := &e.State
		applied := memaddr.WordMask(0)
		(m.Mask & st.ownedMask).ForEach(func(i int) {
			if st.owner[i] == senderIdx {
				applied |= memaddr.MaskOf(i)
			}
		})
		if applied != 0 {
			st.data.Merge(&m.Data, applied)
			st.dirty |= applied
			st.ownedMask &^= applied
			applied.ForEach(func(i int) { st.owner[i] = noOwner })
			if l.obs != nil {
				l.ownerEv(m.Line, applied)
			}
		} else {
			l.st.Inc("llc.wb.nonowner", 1)
		}
	} else {
		// Inclusivity for owned data means the line must be present while
		// owned; a miss here means the sender lost ownership to an
		// eviction race and the data is stale.
		l.st.Inc("llc.wb.nonowner", 1)
	}
	l.sendV(proto.Message{
		Type: proto.RspWB, Dst: m.Src, Requestor: m.Src, ReqID: m.ReqID,
		Line: m.Line, Mask: m.Mask, Trace: m.Trace,
	})
	l.maybeCompleteRvk(m.Line)
	l.afterTransition(m.Line)
}

// handleRspRvkO absorbs an owner's write-back triggered by RvkO or a
// forwarded ReqS. Data is applied for words the sender still owns; the
// mask may be larger than requested (line-granularity devices write back
// the whole line, paper Fig. 1b).
func (l *LLC) handleRspRvkO(m *proto.Message) {
	// A revocation write-back is only meaningful while the transaction
	// whose RvkO solicited it is still open; the response echoes the
	// probe's (Requestor, ReqID) and both must match. Without a match the
	// transaction already resolved via the owner's racing ReqWB — and any
	// ownership the sender appears to hold *now* is a newer grant it
	// re-acquired after that write-back, so applying the response's stale
	// data or clearing the fresh ownership would corrupt the line. (Found
	// by the pressure fuzzer: a ReqWB/RvkO/ReqO crossing on a barrier
	// line left the LLC answering GPU spin reads from a stale copy.)
	//spandex:transition RspRvkO from=O+rvk|SO+rvk|O+evict|SO+evict to=V|S|O|SO|I|F+fetch|O+rvk|SO+rvk|O+evict|SO+evict emits=RspS,RspWTData,MemWrite,MemRead
	//spandex:transition RspRvkO from=V|S|O|SO|I|I+fetch|F+fetch|V+inv|O+inv|V+evict to=V|S|O|SO|I|I+fetch|F+fetch|V+inv|O+inv|V+evict
	l.observe(m)
	t, ok := l.txns[m.Line]
	if !ok || (t.kind != txnRvk && t.kind != txnEvict) || !l.rvkEchoMatches(t, m) {
		l.st.Inc("llc.rvko.stale", 1)
		return
	}
	e := l.array.Peek(m.Line)
	if e == nil {
		panic("core: RspRvkO for absent line")
	}
	if !m.HasData {
		// Data-less RspRvkO: the owner's write-back is already in flight
		// with the data (paper §III-C2, footnote 5); ownership clears when
		// that ReqWB arrives, which also resolves the waiting transaction.
		return
	}
	st := &e.State
	senderIdx := int8(l.dev(m.Src))
	applied := memaddr.WordMask(0)
	(m.Mask & st.ownedMask).ForEach(func(i int) {
		if st.owner[i] == senderIdx {
			applied |= memaddr.MaskOf(i)
		}
	})
	if applied != 0 {
		st.data.Merge(&m.Data, applied)
		st.dirty |= applied
		st.ownedMask &^= applied
		applied.ForEach(func(i int) { st.owner[i] = noOwner })
		if l.obs != nil {
			l.ownerEv(m.Line, applied)
		}
	}
	l.maybeCompleteRvk(m.Line)
	l.afterTransition(m.Line)
}

// rvkEchoMatches reports whether a RspRvkO echoes the identity of the
// revocation probe t sent: forwarded revocations (txnRvk) carry the origin
// request's (Requestor, ReqID); eviction revocations carry the LLC's own
// ID and the eviction sequence number. A mismatch means the response
// answers an older, already-resolved revocation of the same line.
func (l *LLC) rvkEchoMatches(t *llcTxn, m *proto.Message) bool {
	if t.kind == txnRvk {
		return m.Requestor == t.origin.Requestor && m.ReqID == t.origin.ReqID
	}
	return m.Requestor == l.ID && m.ReqID == t.rvkID
}

// maybeCompleteRvk resolves a txnRvk (or txnEvict) once every word it was
// waiting on has ceased to be owned — whether via RspRvkO or a racing
// ReqWB from the owner (paper §III-C2).
func (l *LLC) maybeCompleteRvk(line memaddr.LineAddr) {
	t, ok := l.txns[line]
	if !ok || (t.kind != txnRvk && t.kind != txnEvict) {
		return
	}
	e := l.array.Peek(line)
	if e == nil {
		panic("core: revocation txn on absent line")
	}
	if e.State.ownedMask&t.rvkMask != 0 {
		return // still waiting on some word
	}
	if t.pendingAcks > 0 {
		// A sharer-invalidating eviction has no revoked words, so the
		// ownedMask check above is vacuous; a stale non-owner ReqWB
		// arriving mid-eviction must not resolve it out from under the
		// outstanding InvAcks.
		return
	}
	delete(l.txns, line)
	l.txnResolved()
	if t.kind == txnEvict {
		t.resume()
		l.drain(t)
		l.freeTxn(t)
		return
	}
	if l.obs != nil {
		l.unblockEv(&t.origin)
		l.txnOcc()
	}
	// The blocked request resumes: for ReqWT+data, perform the update
	// now that data is home; for ReqS(1), MESI owners already sent
	// RspS directly, and the LLC now answers for any words it revoked
	// from self-invalidating owners.
	switch t.origin.Type {
	case proto.ReqWTData:
		l.performUpdate(e, &t.origin)
	case proto.ReqS:
		l.respond(&t.origin, proto.RspS, t.serveMask, true, e)
	default:
		panic("core: unexpected rvk origin " + t.origin.Type.String())
	}
	l.drain(t)
	l.freeTxn(t)
}

// handleInvAck counts sharer invalidation acks; when the last arrives the
// blocked write request proceeds.
func (l *LLC) handleInvAck(m *proto.Message) {
	// The last ack re-dispatches the blocked write (whose own handling is
	// observed separately) or, for evictions, flushes and replaces the
	// victim. Sharer invalidation clears the shared bit up front, so acks
	// arrive in V+inv (no owned words) or O+inv, never S+inv.
	//spandex:transition InvAck from=V+inv|O+inv to=V|O|O+rvk|V+inv|O+inv emits=RspWT,RspO,RspOData,RspWTData,RvkO,Inv
	//spandex:transition InvAck from=V+evict to=I|V+evict|F+fetch emits=MemWrite,MemRead
	if mutDropInvAck != nil && mutDropInvAck(m) {
		return
	}
	l.observe(m)
	t, ok := l.txns[m.Line]
	if !ok || (t.kind != txnInv && t.kind != txnEvict) {
		panic("core: stray InvAck")
	}
	t.pendingAcks--
	if t.pendingAcks > 0 {
		return
	}
	delete(l.txns, m.Line)
	l.txnResolved()
	if t.kind == txnEvict {
		t.resume()
		l.drain(t)
		l.freeTxn(t)
		return
	}
	e := l.array.Peek(m.Line)
	if e == nil {
		panic("core: InvAck for absent line")
	}
	if l.obs != nil {
		l.unblockEv(&t.origin)
		l.txnOcc()
	}
	l.process(e, &t.origin)
	l.drain(t)
	l.freeTxn(t)
}

// drain re-dispatches requests queued behind a completed transaction. If a
// re-dispatched request starts a new transaction, the remainder transfers
// to its queue, preserving order.
func (l *LLC) drain(t *llcTxn) {
	for i := range t.waiting {
		m := &t.waiting[i]
		if nt, ok := l.txns[t.line]; ok {
			nt.waiting = append(nt.waiting, t.waiting[i:]...)
			return
		}
		if l.obs != nil {
			l.unblockEv(m)
		}
		e := l.array.Lookup(t.line)
		if e == nil {
			rest := t.waiting[i:]
			l.startFetch(m)
			if nt, ok := l.txns[t.line]; ok && len(rest) > 1 {
				nt.waiting = append(nt.waiting, rest[1:]...)
			}
			return
		}
		l.process(e, m)
	}
}
