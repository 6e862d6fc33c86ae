package mcheck

import (
	"slices"

	"spandex/internal/core"
	"spandex/internal/proto"
)

// reduce_ref_test.go keeps the world-based expansion the explorer's
// record-based one replaced, as the reference it is checked against
// (TestEncoderMatchesReference): the enabled actions, the ample order and
// the child sleep sets, each read off a live world — its pending pool,
// its devices' script cursors and held externals, and its LLC banks'
// directory queries — at the state they are computed for.

// enumActions enumerates the enabled actions: an issue of each ready
// device's next op, and a delivery of the oldest pending message of each
// (src, dst) pair.
func (w *world) enumActions() []action {
	var acts []action
	for i, d := range w.devs {
		if !d.inflight && d.next < len(d.ops) {
			acts = append(acts, action{flat: i, issue: true, unit: int8(i), src: -1})
		}
	}
	for k, m := range w.pending {
		if !slices.ContainsFunc(w.pending[:k], func(o *proto.Message) bool { return o.Src == m.Src && o.Dst == m.Dst }) {
			acts = append(acts, action{flat: len(w.devs) + k, unit: int8(m.Dst), src: int8(m.Src)})
		}
	}
	return acts
}

// pendingOf returns the message delivery a delivers.
func (w *world) pendingOf(a action) *proto.Message { return w.pending[a.flat-len(w.devs)] }

// actionOfKey resolves a key against the current state: the named issue if
// still enabled, or the current head of the named FIFO pair.
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
			return action{flat: len(w.devs) + i, unit: k.unit, src: k.src}, true
		}
	}
	return action{}, false
}

// indep reports whether two actions enabled in w's current state commute
// exactly (scene.indep).
func (w *world) indep(a, b action) bool {
	if a.issue || b.issue {
		return a.unit != b.unit
	}
	if a.unit != b.unit {
		return true
	}
	n := len(w.devs)
	ma, mb := w.pendingOf(a), w.pendingOf(b)
	switch u := int(a.unit); {
	case u >= n && u < n+len(w.llcs):
		return w.llcIndep(w.llcs[u-n], ma, mb)
	case u == n+len(w.llcs):
		if ma.Src != mb.Src {
			return true
		}
		if ma.Line == mb.Line {
			return false
		}
		return ma.Type != proto.MemRead || mb.Type != proto.MemRead
	}
	return false
}

// llcIndep refines same-destination dependence for two deliveries to the
// same LLC bank against its live directory (scene.llcIndep).
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
// handling m at a settled line (scene.llcDestBits).
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

// ampleOrder tries to commit exploration to a single unit's action group
// (frame.ampleOrder): it returns acts group-first and the group length,
// or acts and len(acts) when no unit is committable.
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
			for x := range w.devs {
				if h, ok := w.chk.Probe(proto.NodeID(x)).(holder); ok && x != u && h.HoldsExternalFor(proto.NodeID(u)) {
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
// sleep set its child inherits (frame.childSleeps).
func (w *world) childSleeps(acts []action, sleep []actKey) [][]actKey {
	var asleep []action
	for _, k := range sleep {
		if b, ok := w.actionOfKey(k); ok {
			asleep = append(asleep, b)
		}
	}
	out := make([][]actKey, len(acts))
	var explored []action
	for i, a := range acts {
		if slices.Contains(sleep, a.key()) {
			continue
		}
		for _, b := range asleep {
			if w.indep(a, b) {
				out[i] = append(out[i], b.key())
			}
		}
		for _, e := range explored {
			if w.indep(a, e) {
				out[i] = append(out[i], e.key())
			}
		}
		explored = append(explored, a)
	}
	return out
}
