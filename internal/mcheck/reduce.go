package mcheck

// reduce.go implements the partial-order machinery the explorer uses to
// prune interleavings without losing violations: a conditional
// independence relation between actions, persistent ("ample") action
// groups, and the action-key plumbing sleep sets are stored under. The
// static facts it leans on (guardMsgTypes, settledLocalMsgTypes,
// memSoleClient) are derived from the checked-in transition/message-flow
// graphs by cmd/spandex-graph into indep_tables.go; the soundness argument
// lives in DESIGN.md §10.
//
// The ground truth both reductions rest on: an action is one delivery (or
// issue) plus a full engine drain, so all its effects are (1) mutations of
// exactly one unit's state — the delivery destination or issuing device —
// and (2) appends to per-(src,dst) FIFO *tails* of the pending pool.
// Deliveries consume only FIFO *heads*. Two actions on different units
// therefore commute exactly: neither reads the other's unit state, and a
// FIFO's appends all originate from its source unit's handling, so two
// actions on different units never append to the same FIFO — their tail
// appends land on disjoint pairs and are order-invariant under the
// canonical per-pair serialization.
//
// Everything here reads a state's hashing record, never a world: the
// pending messages' FIFO fields (msgRec) and each unit's facts (unitFacts),
// read from the world when the unit's section is walked and shared with
// the section, as its bytes are. A fact is a function of the unit's state
// as its section writes it, so a memoized transition predicts the child's
// facts along with its bytes. reduce_ref_test.go keeps the same functions
// over a live world as the reference they are checked against.

import (
	"slices"

	"spandex/internal/memaddr"
	"spandex/internal/proto"
)

// unitFacts are what the explorer reads of one unit between actions, for
// its reductions and its deadlock checks and their reports. They are read
// when the unit's section is walked (world.readFacts).
type unitFacts struct {
	// A device: its script cursor, whether its next operation can issue
	// and whether its script is done, and the devices it holds a deferred
	// external for (HoldsExternalFor) as a bitset.
	next                         int
	inflight, issuable, finished bool
	holds                        uint64
	// An LLC bank: the devices named by a request parked in one of its
	// transactions (QueuedRequestorBits), the devices its directory records
	// (DirectoryMentions) as a bitset, whether a fetch waits for a frame
	// (AllocWaiting), and the facts of each scene line it homes, in
	// scene.lines order.
	queued, mentions uint64
	allocWait        bool
	lines            []lineFacts
}

// lineFacts is what the LLC independence refinement reads of one line at
// its home bank: whether it is settled (LineSettled) and the devices a
// request handled against it could probe (ProbeTargets).
type lineFacts struct {
	settled bool
	targets uint64
}

// action is one enabled transition, in both the flat world.apply encoding
// and the unit coordinates the reductions reason about. Unit indices
// coincide with NodeIDs: devices are [0, n), the LLC banks [n, n+B),
// DRAM n+B (B = 1 for every flat scenario).
type action struct {
	// flat is the world.apply/replay encoding: a device index for issues,
	// len(devs)+k for delivery of pending[k], whose record is the state
	// record's msgs[k]. Valid for the exact state it was enumerated in
	// (and any deterministic replay of it).
	flat  int
	issue bool
	// unit is the acting unit: the issuing device, or the delivery
	// destination.
	unit int8
	// src is the delivery source unit, -1 for issues.
	src int8
}

// actKey names an action independently of the flat pending index: an
// issue is named by its device, a delivery by its (src, dst) pair — the
// pair's head is unique in any state. Keys stay meaningful across
// independent actions (which never consume another pair's head), which is
// what lets sleep sets carry them between states and the visited set
// store them as they are: in real device coordinates.
type actKey struct {
	issue     bool
	unit, src int8
}

func (a action) key() actKey { return actKey{issue: a.issue, unit: a.unit, src: a.src} }

// device returns the facts of device i at the state of record f.
func (sc *scene) device(f *stateHash, i int) *unitFacts { return f.secs[sc.nbank+2+i].f }

// msg returns the record of the message delivery a delivers at the state
// of record f.
func (sc *scene) msg(f *stateHash, a action) *msgRec { return &f.msgs[a.flat-sc.ndev] }

// frame is one DFS depth: the hashing record of the state on the path
// there, and the scratch its expansion is computed in, reused by every
// state expanded at that depth. A child's expansion uses the next frame,
// so a state's actions and sleep sets stay put while its children are
// explored.
type frame struct {
	rec stateHash
	// acts are the enabled actions, the ample group first; spare is the
	// buffer ampleOrder reorders them through, and sizes and heads its
	// per-unit action counts and per-bank FIFO heads.
	acts, spare []action
	sizes       []int
	heads       []uint64
	// sleeps holds each action's child sleep set, slices of keys; asleep
	// and explored are the actions the state's own sleep set names and
	// the siblings explored so far, as childSleeps goes.
	sleeps           [][]actKey
	keys             []actKey
	asleep, explored []action
}

// enabled enumerates the actions enabled at the frame's state into
// fr.acts: an issue of each ready device's next op, and a delivery of the
// oldest pending message of each (src, dst) pair. Only per-pair heads are
// deliverable — the network guarantees point-to-point FIFO ordering and
// the protocols' race handling assumes it, so other orders are
// unreachable in real executions and exploring them would report false
// violations.
func (fr *frame) enabled(sc *scene) []action {
	f := &fr.rec
	acts := fr.acts[:0]
	for i := 0; i < sc.ndev; i++ {
		if sc.device(f, i).issuable {
			acts = append(acts, action{flat: i, issue: true, unit: int8(i), src: -1})
		}
	}
	for k := range f.msgs {
		if m := &f.msgs[k]; headAt(f.msgs, k) {
			acts = append(acts, action{flat: sc.ndev + k, unit: m.dst, src: m.src})
		}
	}
	fr.acts = acts
	return acts
}

// headAt reports whether msgs[k] is the head of its (src, dst) FIFO: no
// earlier message shares its pair.
func headAt(msgs []msgRec, k int) bool {
	m := &msgs[k]
	for j := range k {
		if msgs[j].src == m.src && msgs[j].dst == m.dst {
			return false
		}
	}
	return true
}

// actionOfKey resolves a key against the state of record f: the named
// issue if still enabled, or the current head of the named FIFO pair. ok
// is false when nothing matches (a defensively impossible case for keys
// carried in sleep sets — independence preserves their enabledness —
// which callers treat as "dependent").
func (sc *scene) actionOfKey(f *stateHash, k actKey) (action, bool) {
	if k.issue {
		if !sc.device(f, int(k.unit)).issuable {
			return action{}, false
		}
		return action{flat: int(k.unit), issue: true, unit: k.unit, src: -1}, true
	}
	for i := range f.msgs {
		if m := &f.msgs[i]; m.src == k.src && m.dst == k.unit {
			return action{flat: sc.ndev + i, unit: k.unit, src: k.src}, true
		}
	}
	return action{}, false
}

// indep reports whether two actions enabled at the state of record f
// commute exactly: executing them in either order yields the same
// canonical state, and neither disables the other. Different units always
// commute (see the file comment); same-unit pairs are dependent, except
// at the LLC and DRAM where message-level refinement can still separate
// them. The relation is conditional — llcIndep consults the bank's
// directory facts — and is only meaningful for the state it is evaluated
// in, which is exactly how the explorer uses it (sleep-set filtering at
// the state the first action fires from).
func (sc *scene) indep(f *stateHash, a, b action) bool {
	if a.issue || b.issue {
		// An issue touches its device and FIFO tails; a delivery its
		// destination unit and FIFO tails. They conflict only when that is
		// the same unit. (A delivery *from* the issuing device is fine: it
		// consumes a head the issue never sees.)
		return a.unit != b.unit
	}
	if a.unit != b.unit {
		return true
	}
	n := sc.ndev
	ma, mb := sc.msg(f, a), sc.msg(f, b)
	switch u := int(a.unit); {
	case u >= n && u < n+sc.nbank: // one LLC bank
		return sc.llcIndep(u-n, f.secs[u-n].f, ma, mb)
	case u == n+sc.nbank: // DRAM
		// Heads from different banks always commute: bank interleaving makes
		// their lines disjoint, and each bank's MemReadRsp traffic rides its
		// own DRAM→bank FIFO. Same-bank heads cannot coexist (per-pair FIFO)
		// — this arm only fires for keys carried across states. Same line: a
		// write reorders against a read's data. Different lines, same bank:
		// memory words disjoint, but MemReadRsp emission order onto the
		// shared DRAM→bank FIFO still matters when both are reads.
		if ma.src != mb.src {
			return true
		}
		if ma.line == mb.line {
			return false
		}
		return ma.typ != proto.MemRead || mb.typ != proto.MemRead
	}
	return false
}

// llcIndep refines same-destination dependence for two deliveries to LLC
// bank b, whose facts are bf, on different lines. Statically, *any* LLC
// handler may ripple into global structure — a miss allocates, allocation
// may evict a victim line, and resolving any transaction retries parked
// fetches — so a sound static line-locality set is empty. Instead
// settledLocalMsgTypes names the types whose handling is line-local
// *provided* the line is present and settled, and the rest is checked
// against the bank's directory facts: both lines settled (present,
// fetched, no open transaction), no fetch parked on allocation anywhere
// (its retry is woken by transaction resolution on an unrelated line), and
// the two handlers' possible emission targets — each message's
// requestor/sender plus the current sharers and owners of its line —
// disjoint, so no send order on a shared outgoing FIFO is at stake.
func (sc *scene) llcIndep(b int, bf *unitFacts, ma, mb *msgRec) bool {
	if ma.line == mb.line {
		return false
	}
	if !settledLocalMsgTypes[ma.typ] || !settledLocalMsgTypes[mb.typ] {
		return false
	}
	if bf.allocWait {
		return false
	}
	la, lb := sc.lineFacts(b, bf, ma.line), sc.lineFacts(b, bf, mb.line)
	if !la.settled || !lb.settled {
		return false
	}
	return sc.llcDestBits(la, ma)&sc.llcDestBits(lb, mb) == 0
}

// lineFacts returns the facts of line at bank b, whose facts are bf. A
// line that is not among the scene lines b homes is never present there,
// so it is unsettled, with no probe targets.
func (sc *scene) lineFacts(b int, bf *unitFacts, line memaddr.LineAddr) lineFacts {
	if i := slices.Index(sc.lines[b], line); i >= 0 {
		return bf.lines[i]
	}
	return lineFacts{}
}

// llcDestBits over-approximates the devices an LLC bank may message while
// handling m at a settled line of facts l: the requestor (responses), the
// sender (write-back acks), and every current sharer or owner of the line
// (invalidations, revocations, forwards).
func (sc *scene) llcDestBits(l lineFacts, m *msgRec) uint64 {
	bits := l.targets
	if i := int(m.req); i >= 0 && i < sc.ndev {
		bits |= 1 << uint(i)
	}
	if i := int(m.src); i >= 0 && i < sc.ndev {
		bits |= 1 << uint(i)
	}
	return bits
}

// ampleOrder tries to commit exploration to a single unit's action group —
// a persistent set: no execution using only actions outside the group can
// enable or perform anything dependent on it. When a committable unit
// exists, fr.acts is reordered group-first and the group length returned;
// the explorer then expands only that prefix (unless the cycle proviso
// widens it). Otherwise ample = len(fr.acts): full expansion.
//
// DRAM's group is committable whenever it is nonempty: the LLC is its only
// client (memSoleClient, checked by spandex-graph), so every future
// MemRead/MemWrite queues behind the head already in the group, and its
// responses flow only to the LLC.
//
// A device u's group (all deliveries to u, plus u's issue if ready) is
// committable iff outside execution cannot place a fresh message at the
// head of a previously empty FIFO toward u. Three sources could:
//
//  1. A forwardable request of u's (guardMsgTypes, Requestor=u) sitting
//     anywhere outside u — in the pending pool not yet at u, parked in an
//     LLC transaction queue (QueuedRequestorBits), or held inside another
//     device's controller behind a grant, probe, or atomic
//     (HoldsExternalFor). Any of these can reach an owner device whose
//     direct response to u lands on a possibly empty device→u FIFO.
//     These are disqualifying unconditionally.
//  2. An LLC bank emitting to u. A bank whose bank→u FIFO is nonempty is
//     harmless: every such emission queues behind a head already in u's
//     group and creates no fresh action — condition 1 alone suffices. A
//     bank whose FIFO to u is empty must be provably unable to emit to u:
//     no pending message anywhere names u as requestor or sender (refd —
//     its delivery could draw a response), no parked transaction request
//     names u (QueuedRequestorBits again), and that bank's directory holds
//     no sharer or owner record of u (DirectoryMentions — an unrelated
//     request could probe it). Under those, u's identity exists nowhere
//     outside u, and only u's own actions can reintroduce it — outside
//     execution keeps the property inductively.
//  3. Another device emitting to u spontaneously — impossible: devices
//     emit device→device only when answering a forward, covered by 1.
//
// The LLC banks themselves are never committable: they converse with
// everyone. Among committable units DRAM wins (its group touches no
// device — with banks it holds at most one head per bank, all mutually
// commuting), then the smallest device group, lowest index on ties.
func (fr *frame) ampleOrder(sc *scene) int {
	f, acts := &fr.rec, fr.acts
	n, nb := sc.ndev, sc.nbank
	memUnit := int8(n + nb)
	// Device bitsets: heads[b] has the devices whose FIFO from bank b is
	// nonempty; guarded and refd those the pending pool names as above.
	heads := grow(&fr.heads, nb)
	var guarded, refd uint64
	for i := range f.msgs {
		m := &f.msgs[i]
		if b := int(m.src) - n; b >= 0 && b < nb && int(m.dst) < n {
			heads[b] |= 1 << uint(m.dst)
		}
		if r := int(m.req); r >= 0 && r < n && m.dst != m.req {
			if guardMsgTypes[m.typ] {
				guarded |= 1 << uint(r)
			}
			refd |= 1 << uint(r)
		}
		if s := int(m.src); s >= 0 && s < n && m.dst != m.src {
			refd |= 1 << uint(s)
		}
	}
	sizes := grow(&fr.sizes, n+nb+1)
	for _, a := range acts {
		sizes[a.unit]++
	}
	best := int8(-1)
	if memSoleClient && sizes[memUnit] > 0 {
		best = memUnit
	}
	if best < 0 {
		// Device bitsets: named by a request parked at some bank, and held
		// for by some other device.
		var queued, held uint64
		for b := range nb {
			queued |= f.secs[b].f.queued
		}
		for x := range n {
			held |= sc.device(f, x).holds &^ (1 << uint(x))
		}
		for u := 0; u < n; u++ {
			bit := uint64(1) << uint(u)
			if sizes[u] == 0 || (guarded|queued|held)&bit != 0 {
				continue
			}
			okLLC := true
			for b := range nb {
				if heads[b]&bit != 0 {
					continue
				}
				if refd&bit != 0 || f.secs[b].f.mentions&bit != 0 {
					okLLC = false
					break
				}
			}
			if !okLLC {
				continue
			}
			if best < 0 || sizes[u] < sizes[best] {
				best = int8(u)
			}
		}
	}
	if best < 0 {
		return len(acts)
	}
	ordered := fr.spare[:0]
	for _, a := range acts {
		if a.unit == best {
			ordered = append(ordered, a)
		}
	}
	ample := len(ordered)
	for _, a := range acts {
		if a.unit != best {
			ordered = append(ordered, a)
		}
	}
	fr.acts, fr.spare = ordered, acts
	return ample
}

// grow returns (*buf)[:n], zeroed, growing the buffer when it is short.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	s := (*buf)[:n]
	clear(s)
	return s
}

// childSleeps computes, for each action of fr.acts not asleep in sleep,
// the sleep set its child inherits, into fr.sleeps: the slept actions
// independent of it stay asleep past it, and the siblings explored before
// it (those earlier in fr.acts and not asleep) go to sleep for its subtree
// when independent of it. It is evaluated at this state, the one the
// conditional independence relation is valid in. The sets are slices of
// fr.keys; none is ever appended to.
func (fr *frame) childSleeps(sc *scene, sleep []actKey) {
	f, acts := &fr.rec, fr.acts
	asleep := fr.asleep[:0]
	for _, k := range sleep {
		if b, ok := sc.actionOfKey(f, k); ok {
			asleep = append(asleep, b)
		}
	}
	if need := len(acts) * (len(asleep) + len(acts)); cap(fr.keys) < need {
		fr.keys = make([]actKey, 0, need)
	}
	keys, explored := fr.keys[:0], fr.explored[:0]
	out := grow(&fr.sleeps, len(acts))
	for i, a := range acts {
		if slices.Contains(sleep, a.key()) {
			continue
		}
		start := len(keys)
		for _, b := range asleep {
			if sc.indep(f, a, b) {
				keys = append(keys, b.key())
			}
		}
		for _, e := range explored {
			if sc.indep(f, a, e) {
				keys = append(keys, e.key())
			}
		}
		explored = append(explored, a)
		out[i] = keys[start:len(keys):len(keys)]
	}
	fr.asleep, fr.keys, fr.explored = asleep, keys, explored
}
