package mcheck

import (
	"fmt"
	"reflect"

	"spandex/internal/core"
	"spandex/internal/denovo"
	"spandex/internal/device"
	"spandex/internal/dram"
	"spandex/internal/gpucoh"
	"spandex/internal/memaddr"
	"spandex/internal/mesi"
	"spandex/internal/noc"
	"spandex/internal/proto"
	"spandex/internal/sim"
	"spandex/internal/stats"
)

// world is one concrete instantiation of a scenario: a full simulated
// system whose network sends are intercepted into a pending pool instead
// of being delivered, so the explorer chooses the delivery order. Between
// actions the engine is drained, making each action an atomic protocol
// step: (deliver one message | issue one device op) plus every internal
// event it triggers.
type world struct {
	eng *sim.Engine
	st  *stats.Stats
	net *noc.Network
	// llcs holds the LLC banks at NodeIDs [len(devs), len(devs)+len(llcs)).
	// A flat scenario (LLCBanks ≤ 1) has exactly one; a banked one has
	// Scenario.LLCBanks, each homing the lines proto.BankOf maps to it.
	llcs []*core.LLC
	mem  *dram.Memory
	chk  *core.Checker
	devs []*mdev

	// pending holds captured, not-yet-delivered messages in send order.
	pending []*proto.Message

	// allowed maps each scripted address to the set of values a load of it
	// may legally return: the initial value plus everything any script
	// stores there (out-of-thin-air check).
	allowed map[memaddr.Addr]map[uint32]bool

	// trace describes every action applied so far, in order.
	trace []string

	// dataViol and stuck record violations found inside an action.
	dataViol string
	stuck    string

	// red selects the state-space reductions this world's fingerprints and
	// action enumeration support.
	red Reduction

	// perms/invs enumerate the scenario's device symmetry group when
	// red.Canon is set: every renaming of devices that maps each device to
	// one with the same protocol and identical script. perms[k][i] is the
	// canonical identity device i takes under renaming k; invs[k] is the
	// inverse. perms[0] is the identity. curPerm records which renaming
	// minimized the last fingerprint() call — the coordinate system sleep
	// sets are stored in for that state.
	perms   [][]int8
	invs    [][]int8
	curPerm int
}

// mdev is one scripted device: an L1 controller plus an in-order script
// cursor. A device issues its next operation only after the previous one's
// completion callback fired (stores complete when buffered).
type mdev struct {
	id       proto.NodeID
	name     string
	l1       device.L1Cache
	ops      []device.Op
	next     int
	inflight bool
	// holds, when non-nil, reports whether this device's controller is
	// internally holding a deferred external whose eventual direct
	// response targets the given device (ampleOrder's persistence check).
	// GPU-coherence devices never hold externals and leave it nil.
	holds func(proto.NodeID) bool
}

func (d *mdev) finished() bool { return d.next == len(d.ops) && !d.inflight }

// newWorld builds a fresh system for the scenario. Construction is fully
// deterministic, so replaying the same action sequence from a fresh world
// reproduces the same state bit-for-bit — the property the DFS's
// replay-based backtracking and the violation traces rely on.
func newWorld(scn Scenario, cov *core.TransitionCoverage, red Reduction) *world {
	n := len(scn.Devices)
	banks := scn.LLCBanks
	if banks < 1 {
		banks = 1
	}
	llcID := proto.NodeID(n) // first bank; line l lives at proto.HomeOf(llcID, banks, l)
	memID := proto.NodeID(n + banks)

	w := &world{
		eng:     sim.New(),
		st:      stats.New(),
		allowed: make(map[memaddr.Addr]map[uint32]bool),
		red:     red,
	}
	if red.Canon {
		w.perms, w.invs = symPerms(scn.Devices)
	}
	w.net = noc.New(w.eng, w.st, noc.Config{HopLatency: 1, TicksPerByte: 0, MeshWidth: 4}, n+banks+1)
	w.net.SetInterceptor(func(m *proto.Message) { w.pending = append(w.pending, m) })

	llcBytes, llcWays := scn.LLCBytes, scn.LLCWays
	if llcBytes == 0 {
		llcBytes, llcWays = 8*memaddr.LineBytes, 2
	}
	w.mem = dram.New(memID, w.eng, w.net, 1)
	w.chk = core.NewChecker()
	w.chk.Collect = true
	w.chk.CheckEveryTransition = true
	for b := 0; b < banks; b++ {
		llc := core.NewLLC(llcID+proto.NodeID(b), memID, w.eng, w.net, w.st, core.Config{
			SizeBytes: llcBytes, Ways: llcWays, AccessLatency: 1,
			BankStride: banks, BankIndex: b,
		})
		llc.SetChecker(w.chk)
		if cov != nil {
			llc.SetCoverage(cov)
		}
		w.llcs = append(w.llcs, llc)
	}
	devBytes, devWays := scn.DevBytes, scn.DevWays
	if devBytes == 0 {
		devBytes, devWays = 4*memaddr.LineBytes, 2
	}

	for i, spec := range scn.Devices {
		id := proto.NodeID(i)
		d := &mdev{id: id, name: fmt.Sprintf("%s%d", spec.Proto, i), ops: spec.Ops}
		for _, op := range spec.Ops {
			switch op.Kind {
			case device.OpLoad, device.OpStore, device.OpFence:
			case device.OpAtomic:
				// Only fetch-add: its commutativity keeps the legal-value
				// model below exact (any subset of the adds may have hit).
				if op.Atomic != proto.AtomicFetchAdd {
					panic("mcheck: atomic scripts are restricted to fetch-add")
				}
			default:
				panic("mcheck: scripts are restricted to loads, stores, fetch-adds and fences")
			}
		}
		registerAll := func(isMESI bool) {
			for _, llc := range w.llcs {
				llc.RegisterDevice(id, isMESI)
			}
		}
		switch spec.Proto {
		case ProtoMESI:
			tu := core.NewMESITU(id, w.eng, w.net, w.st, llcID, 1)
			tu.SetLLCBanks(banks)
			mc := mesi.DefaultConfig(llcID)
			mc.ParentBanks = banks
			mc.SizeBytes, mc.Ways = devBytes, devWays
			mc.MSHREntries, mc.StoreBufferEntries = 8, 8
			mc.HitLatency = 1
			l1 := mesi.New(id, w.eng, tu, w.st, mc)
			tu.Bind(l1)
			registerAll(true)
			w.chk.AttachDevice(id, tu)
			tu.SetChecker(w.chk)
			d.l1 = l1
			d.holds = tu.HoldsExternalFor
		case ProtoDeNovo:
			tu := core.NewPassTU(id, w.eng, w.net, 1)
			dc := denovo.DefaultConfig(llcID, false)
			dc.ParentBanks = banks
			dc.SizeBytes, dc.Ways = devBytes, devWays
			dc.MSHREntries, dc.WriteBufferEntries = 8, 8
			dc.HitLatency = 1
			l1 := denovo.New(id, w.eng, tu, w.st, dc)
			tu.Bind(l1)
			registerAll(false)
			w.chk.AttachDevice(id, l1)
			d.l1 = l1
			d.holds = l1.HoldsExternalFor
		case ProtoGPU:
			tu := core.NewPassTU(id, w.eng, w.net, 1)
			gc := gpucoh.DefaultConfig(llcID)
			gc.ParentBanks = banks
			gc.SizeBytes, gc.Ways = devBytes, devWays
			gc.MSHREntries, gc.WriteBufferEntries = 8, 8
			gc.HitLatency = 1
			l1 := gpucoh.New(id, w.eng, tu, w.st, gc)
			tu.Bind(l1)
			registerAll(false)
			w.chk.AttachDevice(id, l1)
			d.l1 = l1
		default:
			panic("mcheck: unknown protocol " + string(spec.Proto))
		}
		w.devs = append(w.devs, d)
	}

	for _, iv := range scn.Init {
		line := w.mem.Peek(iv.Addr.Line())
		line[iv.Addr.WordIndex()] = iv.Val
		w.mem.Poke(iv.Addr.Line(), line)
		w.allow(iv.Addr, iv.Val)
	}
	adds := make(map[memaddr.Addr][]uint32)
	for _, spec := range scn.Devices {
		for _, op := range spec.Ops {
			if op.Kind == device.OpFence {
				continue
			}
			w.allow(op.Addr, 0) // pre-init value of every touched word
			if op.Kind == device.OpStore {
				w.allow(op.Addr, op.Value)
			}
			if op.Kind == device.OpAtomic {
				adds[op.Addr] = append(adds[op.Addr], op.Value)
			}
		}
	}
	// Close each fetch-add target's legal set under subset sums of the
	// scripted deltas: a read (or an atomic's returned old value) may
	// observe any base value with any subset of the adds applied.
	for a, deltas := range adds {
		for _, d := range deltas {
			for _, v := range keysOf(w.allowed[a]) {
				w.allow(a, v+d)
			}
		}
	}
	return w
}

func keysOf(set map[uint32]bool) []uint32 {
	out := make([]uint32, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	return out
}

func (w *world) allow(a memaddr.Addr, v uint32) {
	set := w.allowed[a]
	if set == nil {
		set = make(map[uint32]bool)
		w.allowed[a] = set
	}
	set[v] = true
}

// enumActions enumerates the enabled actions: an issue of each ready
// device's next op, and a delivery of the oldest pending message of each
// (src, dst) pair. Only per-pair heads are deliverable — the network
// guarantees point-to-point FIFO ordering and the protocols' race handling
// assumes it, so other orders are unreachable in real executions and
// exploring them would report false violations. Each action carries the
// unit coordinates the reduction machinery reasons about (see reduce.go).
func (w *world) enumActions() []action {
	var acts []action
	for i, d := range w.devs {
		if !d.inflight && d.next < len(d.ops) {
			acts = append(acts, action{flat: i, issue: true, unit: int8(i), src: -1})
		}
	}
	headSeen := make(map[[2]proto.NodeID]bool)
	for k, m := range w.pending {
		pair := [2]proto.NodeID{m.Src, m.Dst}
		if !headSeen[pair] {
			headSeen[pair] = true
			acts = append(acts, action{
				flat: len(w.devs) + k, unit: int8(m.Dst), src: int8(m.Src), msg: m,
			})
		}
	}
	return acts
}

// terminal reports whether the system is quiescent with all scripts done.
func (w *world) terminal() bool {
	if len(w.pending) != 0 {
		return false
	}
	for _, d := range w.devs {
		if !d.finished() {
			return false
		}
	}
	return true
}

// apply executes one action and drains the engine. The action id must
// come from actions() on this exact state.
func (w *world) apply(a int) {
	if a < len(w.devs) {
		w.issue(a)
	} else {
		w.deliver(a - len(w.devs))
	}
	w.eng.Run()
}

func (w *world) issue(di int) {
	d := w.devs[di]
	op := d.ops[d.next]
	idx := d.next
	if op.Kind == device.OpFence {
		// A release fence drains the write buffer (how the device drivers
		// implement Rel). Flush is never rejected; its done callback may
		// fire synchronously when nothing is buffered.
		d.next++
		d.inflight = true
		w.trace = append(w.trace, fmt.Sprintf("%s: release fence", d.name))
		d.l1.Flush(func() { d.inflight = false })
		return
	}
	// inflight is set before Access: stores (and hits) may invoke the
	// completion callback synchronously.
	d.inflight = true
	accepted := d.l1.Access(op, func(v uint32) {
		d.inflight = false
		// An atomic's return is the pre-op value: checked against the same
		// legal set (it is closed under subsets of the scripted adds).
		if op.Kind == device.OpLoad || op.Kind == device.OpAtomic {
			if !w.allowed[op.Addr][v] {
				w.dataViol = fmt.Sprintf(
					"%s: op %d load of word %d returned %d, a value never written to that word",
					d.name, idx, op.Addr.WordIndex(), v)
			}
		}
	})
	if !accepted {
		d.inflight = false
		w.trace = append(w.trace, fmt.Sprintf("%s: op %d (%s w%d) rejected by L1",
			d.name, idx, op.Kind, op.Addr.WordIndex()))
		// A rejected issue with no message in flight and every other
		// device idle cannot ever be accepted: nothing remains to free
		// the controller's resources.
		if len(w.pending) == 0 {
			blocked := true
			for _, o := range w.devs {
				if o != d && !o.finished() {
					blocked = false
				}
			}
			if blocked {
				w.stuck = fmt.Sprintf("%s: op %d permanently rejected by quiescent L1", d.name, idx)
			}
		}
		return
	}
	d.next++
	switch op.Kind {
	case device.OpStore:
		w.trace = append(w.trace, fmt.Sprintf("%s: store w%d=%d", d.name, op.Addr.WordIndex(), op.Value))
	case device.OpAtomic:
		w.trace = append(w.trace, fmt.Sprintf("%s: fetchadd w%d+=%d", d.name, op.Addr.WordIndex(), op.Value))
	case device.OpLoad:
		w.trace = append(w.trace, fmt.Sprintf("%s: load w%d", d.name, op.Addr.WordIndex()))
	default:
		// Fences returned above; mcheck scripts contain no compute ops.
		panic("mcheck: unexpected op kind " + op.Kind.String())
	}
}

func (w *world) deliver(k int) {
	m := w.pending[k]
	rest := make([]*proto.Message, 0, len(w.pending)-1)
	rest = append(rest, w.pending[:k]...)
	rest = append(rest, w.pending[k+1:]...)
	w.pending = rest
	w.trace = append(w.trace, fmt.Sprintf("deliver %s", m))
	w.net.Deliver(m)
}

// fingerprint canonicalizes the protocol-visible state: LLC (lines, txns,
// queued requests), every device controller (through its TU, reached via
// the l1's port back-reference), DRAM contents, script cursors, and the
// pending message pool. With red.Canon the hash is additionally minimized
// over the device symmetry group, with pending serialized per (src, dst)
// FIFO — two states equal up to a renaming of interchangeable devices (or
// a reshuffle of unobservable cross-pair send order) then hash equal. The
// renaming that won the minimization is recorded in curPerm so sleep sets
// can be stored in the state's canonical coordinates.
func (w *world) fingerprint(enc *encoder) uint64 {
	if !w.red.Canon {
		return enc.flatHash(w)
	}
	best := uint64(0)
	w.curPerm = 0
	for pi := range w.perms {
		h := enc.canonHash(w, w.perms[pi], w.invs[pi])
		if pi == 0 || h < best {
			best = h
			w.curPerm = pi
		}
	}
	return best
}

// canonMaps returns the renaming that canonicalized the last fingerprint()
// call and its inverse, or (nil, nil) when state is already canonical (no
// translation needed for action keys).
func (w *world) canonMaps() (idmap, inv []int8) {
	if !w.red.Canon || w.curPerm == 0 {
		return nil, nil
	}
	return w.perms[w.curPerm], w.invs[w.curPerm]
}

// symPerms enumerates the device symmetry group of a scenario: all
// renamings mapping each device to one of the same protocol with a
// deep-equal script. Two such devices are fully interchangeable — they are
// configured identically and their observable behaviour differs only by
// their NodeID — so the system's dynamics commute with any renaming in
// this group and orbit-minimizing the fingerprint merges states that
// differ only by which twin did what. The identity is always perms[0].
// The group's size is the product of the class sizes' factorials; scenario
// authors keep classes small (≤4 twins ⇒ ≤24 renamings per hash).
func symPerms(devs []DeviceScript) (perms, invs [][]int8) {
	n := len(devs)
	class := make([]int, n)
	var reps []DeviceScript
	for i, d := range devs {
		class[i] = -1
		for r, rep := range reps {
			if rep.Proto == d.Proto && reflect.DeepEqual(rep.Ops, d.Ops) {
				class[i] = r
				break
			}
		}
		if class[i] < 0 {
			class[i] = len(reps)
			reps = append(reps, d)
		}
	}
	perm := make([]int8, n)
	used := make([]bool, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			p := append([]int8(nil), perm...)
			inv := make([]int8, n)
			for from, to := range p {
				inv[to] = int8(from)
			}
			perms = append(perms, p)
			invs = append(invs, inv)
			return
		}
		for j := 0; j < n; j++ {
			if !used[j] && class[j] == class[i] {
				used[j] = true
				perm[i] = int8(j)
				rec(i + 1)
				used[j] = false
			}
		}
	}
	rec(0)
	return perms, invs
}

// violation returns the first violation recorded in this state, if any.
func (w *world) violation() (kind, detail string, ok bool) {
	if len(w.chk.Violations) > 0 {
		return "invariant", w.chk.Violations[0].String(), true
	}
	if w.dataViol != "" {
		return "data", w.dataViol, true
	}
	if w.stuck != "" {
		return "deadlock", w.stuck, true
	}
	return "", "", false
}

// pendingOps describes unfinished scripts, for deadlock reports.
func (w *world) pendingOps() string {
	s := ""
	for _, d := range w.devs {
		if d.finished() {
			continue
		}
		if s != "" {
			s += ", "
		}
		state := "ready"
		if d.inflight {
			state = "in flight"
			s += fmt.Sprintf("%s op %d %s", d.name, d.next-1, state)
			continue
		}
		s += fmt.Sprintf("%s op %d %s", d.name, d.next, state)
	}
	return s
}
