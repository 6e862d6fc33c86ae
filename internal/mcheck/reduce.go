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

import (
	"slices"

	"spandex/internal/core"
	"spandex/internal/proto"
)

// action is one enabled transition, in both the flat world.apply encoding
// and the unit coordinates the reductions reason about. Unit indices
// coincide with NodeIDs: devices are [0, n), the LLC banks [n, n+B),
// DRAM n+B (B = 1 for every flat scenario).
type action struct {
	// flat is the world.apply/replay encoding: a device index for issues,
	// len(devs)+k for delivery of pending[k]. Valid for the exact state it
	// was enumerated in (and any deterministic replay of it).
	flat  int
	issue bool
	// unit is the acting unit: the issuing device, or the delivery
	// destination.
	unit int8
	// src is the delivery source unit, -1 for issues.
	src int8
	// msg is the delivered message (nil for issues). Its Line/Type/
	// Requestor fields refine LLC and DRAM dependence.
	msg *proto.Message
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

// actionOfKey resolves a key against the current state: the named issue if
// still enabled, or the current head of the named FIFO pair. ok is false
// when nothing matches (a defensively impossible case for keys carried in
// sleep sets — independence preserves their enabledness — which callers
// treat as "dependent").
func (w *world) actionOfKey(k actKey) (action, bool) {
	if k.issue {
		d := w.devs[k.unit]
		if d.inflight || d.next >= len(d.ops) {
			return action{}, false
		}
		return action{flat: int(k.unit), issue: true, unit: k.unit, src: -1}, true
	}
	for i, m := range w.pending {
		if int8(m.Src) == k.src && int8(m.Dst) == k.unit {
			return action{flat: len(w.devs) + i, unit: k.unit, src: k.src, msg: m}, true
		}
	}
	return action{}, false
}

// indep reports whether two actions enabled in w's current state commute
// exactly: executing them in either order yields the same canonical state,
// and neither disables the other. Different units always commute (see the
// file comment); same-unit pairs are dependent, except at the LLC and DRAM
// where message-level refinement can still separate them. The relation is
// conditional — llcIndep consults w's live directory state — and is only
// meaningful for the state it is evaluated in, which is exactly how the
// explorer uses it (sleep-set filtering at the state the first action
// fires from).
func (w *world) indep(a, b action) bool {
	if a.issue || b.issue {
		if a.issue && b.issue {
			return a.unit != b.unit
		}
		// Issue vs delivery: the issue touches its device and FIFO tails;
		// the delivery touches its destination unit and FIFO tails. They
		// conflict only when that is the same unit. (A delivery *from* the
		// issuing device is fine: it consumes a head the issue never sees.)
		return a.unit != b.unit
	}
	if a.unit != b.unit {
		return true
	}
	n := len(w.devs)
	switch u := int(a.unit); {
	case u >= n && u < n+len(w.llcs): // one LLC bank
		return w.llcIndep(w.llcs[u-n], a.msg, b.msg)
	case u == n+len(w.llcs): // DRAM
		// Heads from different banks always commute: bank interleaving makes
		// their lines disjoint, and each bank's MemReadRsp traffic rides its
		// own DRAM→bank FIFO. Same-bank heads cannot coexist (per-pair FIFO)
		// — this arm only fires for keys carried across states. Same line: a
		// write reorders against a read's data. Different lines, same bank:
		// memory words disjoint, but MemReadRsp emission order onto the
		// shared DRAM→bank FIFO still matters when both are reads.
		if a.msg.Src != b.msg.Src {
			return true
		}
		if a.msg.Line == b.msg.Line {
			return false
		}
		return a.msg.Type != proto.MemRead || b.msg.Type != proto.MemRead
	}
	return false
}

// llcIndep refines same-destination dependence for two deliveries to the
// same LLC bank on different lines. Statically, *any* LLC handler may ripple into global
// structure — a miss allocates, allocation may evict a victim line, and
// resolving any transaction retries parked fetches — so a sound static
// line-locality set is empty. Instead settledLocalMsgTypes names the
// types whose handling is line-local *provided* the line is present and
// settled, and the rest is checked dynamically against the live
// directory: both lines settled (present, fetched, no open transaction),
// no fetch parked on allocation anywhere (its retry is woken by
// transaction resolution on an unrelated line), and the two handlers'
// possible emission targets — each message's requestor/sender plus the
// current sharers and owners of its line — disjoint, so no send order on
// a shared outgoing FIFO is at stake.
func (w *world) llcIndep(llc *core.LLC, a, b *proto.Message) bool {
	if a.Line == b.Line {
		return false
	}
	if !settledLocalMsgTypes[a.Type] || !settledLocalMsgTypes[b.Type] {
		return false
	}
	if llc.AllocWaiting() {
		return false
	}
	if !llc.LineSettled(a.Line) || !llc.LineSettled(b.Line) {
		return false
	}
	return w.llcDestBits(llc, a)&w.llcDestBits(llc, b) == 0
}

// llcDestBits over-approximates the devices an LLC bank may message while
// handling m at a settled line: the requestor (responses), the sender
// (write-back acks), and every current sharer or owner of the line
// (invalidations, revocations, forwards).
func (w *world) llcDestBits(llc *core.LLC, m *proto.Message) uint64 {
	bits := llc.ProbeTargets(m.Line)
	if i := int(m.Requestor); i >= 0 && i < len(w.devs) {
		bits |= 1 << uint(i)
	}
	if i := int(m.Src); i >= 0 && i < len(w.devs) {
		bits |= 1 << uint(i)
	}
	return bits
}

// ampleOrder tries to commit exploration to a single unit's action group —
// a persistent set: no execution using only actions outside the group can
// enable or perform anything dependent on it. When a committable unit
// exists, acts is reordered group-first and the group length returned;
// the explorer then expands only that prefix (unless the cycle proviso
// widens it). Otherwise ample = len(acts): full expansion.
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
func (w *world) ampleOrder(acts []action) ([]action, int) {
	n := len(w.devs)
	nb := len(w.llcs)
	memUnit := int8(n + nb)
	// llcHead[b*n+u]: the bank-b→device-u FIFO is nonempty.
	llcHead := make([]bool, nb*n)
	guarded := make([]bool, n)
	refd := make([]bool, n)
	for _, m := range w.pending {
		if b := int(m.Src) - n; b >= 0 && b < nb && int(m.Dst) < n {
			llcHead[b*n+int(m.Dst)] = true
		}
		if guardMsgTypes[m.Type] && int(m.Requestor) >= 0 && int(m.Requestor) < n &&
			m.Dst != m.Requestor {
			guarded[m.Requestor] = true
		}
		if r := int(m.Requestor); r >= 0 && r < n && int(m.Dst) != r {
			refd[r] = true
		}
		if s := int(m.Src); s >= 0 && s < n && int(m.Dst) != s {
			refd[s] = true
		}
	}
	sizes := make([]int, n+nb+1)
	for _, a := range acts {
		sizes[a.unit]++
	}
	best := int8(-1)
	if memSoleClient && sizes[memUnit] > 0 {
		best = memUnit
	}
	if best < 0 {
		var queued uint64
		for _, llc := range w.llcs {
			queued |= llc.QueuedRequestorBits()
		}
		held := func(u int) bool {
			for x, d := range w.devs {
				if x != u && d.holds != nil && d.holds(proto.NodeID(u)) {
					return true
				}
			}
			return false
		}
		for u := 0; u < n; u++ {
			if sizes[u] == 0 || guarded[u] || queued&(1<<uint(u)) != 0 {
				continue
			}
			okLLC := true
			for b, llc := range w.llcs {
				if llcHead[b*n+u] {
					continue
				}
				if refd[u] || llc.DirectoryMentions(u) {
					okLLC = false
					break
				}
			}
			if !okLLC || held(u) {
				continue
			}
			if best < 0 || sizes[u] < sizes[best] {
				best = int8(u)
			}
		}
	}
	if best < 0 {
		return acts, len(acts)
	}
	ordered := make([]action, 0, len(acts))
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
	return ordered, ample
}

// childSleeps returns, for each action of acts not asleep in sleep, the
// sleep set its child inherits: the slept actions independent of it stay
// asleep past it, and the siblings explored before it (those earlier in
// acts and not asleep) go to sleep for its subtree when independent of
// it. It is evaluated on w, this state, before any child consumes it —
// the state the conditional independence relation is valid in. The sets
// share one backing array; none is ever appended to.
func (w *world) childSleeps(acts []action, sleep []actKey) [][]actKey {
	var asleep []action
	for _, k := range sleep {
		if b, ok := w.actionOfKey(k); ok {
			asleep = append(asleep, b)
		}
	}
	out := make([][]actKey, len(acts))
	explored := make([]action, 0, len(acts))
	keys := make([]actKey, 0, len(acts)*(len(asleep)+len(acts)))
	for i, a := range acts {
		if slices.Contains(sleep, a.key()) {
			continue
		}
		start := len(keys)
		for _, b := range asleep {
			if w.indep(a, b) {
				keys = append(keys, b.key())
			}
		}
		for _, e := range explored {
			if w.indep(a, e) {
				keys = append(keys, e.key())
			}
		}
		explored = append(explored, a)
		out[i] = keys[start:len(keys):len(keys)]
	}
	return out
}
