package mcheck

import (
	"fmt"
	"slices"

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
	sc  *scene
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

	// dataViol and stuck record violations found inside an action.
	dataViol string
	stuck    string
}

// scene is what every world of one exploration shares, read-only. An
// explorer builds it once; the replays behind every backtrack reuse it.
type scene struct {
	scn Scenario
	// canon selects the canonical fingerprint (Reduction.Canon).
	canon bool
	// allowed maps each scripted address to the set of values a load of it
	// may legally return: the initial value plus everything any script
	// stores there (out-of-thin-air check).
	allowed map[memaddr.Addr]map[uint32]bool
	// names are the devices' display names, protocol plus index.
	names []string
	// atomicsAtLLC: next to a GPU-coherence GPU the DeNovo devices are
	// SDG's CPUs, which perform atomics at the LLC as spandex.NewSystem
	// builds them (paper §IV-A).
	atomicsAtLLC bool
	// ndev and nbank count the devices and LLC banks, which fix the
	// positions of a canonical string's sections (sectionOf).
	ndev, nbank int
}

// sectionOf returns the position of unit u's section: the LLC banks
// first, then DRAM, the pending pool, and the devices in index order.
func (sc *scene) sectionOf(u int8) int {
	if int(u) >= sc.ndev {
		return int(u) - sc.ndev
	}
	return sc.nbank + 2 + int(u)
}

// newScene checks a scenario's scripts and derives what its worlds share.
func newScene(scn Scenario, red Reduction) *scene {
	sc := &scene{
		scn:          scn,
		canon:        red.Canon,
		allowed:      make(map[memaddr.Addr]map[uint32]bool),
		atomicsAtLLC: slices.ContainsFunc(scn.Devices, func(d DeviceScript) bool { return d.Proto == ProtoGPU }),
		ndev:         len(scn.Devices),
		nbank:        max(scn.LLCBanks, 1),
	}
	for i, spec := range scn.Devices {
		sc.names = append(sc.names, fmt.Sprintf("%s%d", spec.Proto, i))
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
	}

	for _, iv := range scn.Init {
		sc.allow(iv.Addr, iv.Val)
	}
	adds := make(map[memaddr.Addr][]uint32)
	for _, spec := range scn.Devices {
		for _, op := range spec.Ops {
			if op.Kind == device.OpFence {
				continue
			}
			sc.allow(op.Addr, 0) // pre-init value of every touched word
			if op.Kind == device.OpStore {
				sc.allow(op.Addr, op.Value)
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
			for _, v := range keysOf(sc.allowed[a]) {
				sc.allow(a, v+d)
			}
		}
	}
	return sc
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
	// done and flushed are the completion callbacks of every access and
	// flush the device issues, bound once in newWorld; cur and curIdx are
	// the access in flight and its script index, which done reads.
	done    func(uint32)
	flushed func()
	cur     device.Op
	curIdx  int
}

func (d *mdev) finished() bool { return d.next == len(d.ops) && !d.inflight }

// newWorld builds a fresh system for the scene. Construction is fully
// deterministic, so replaying the same action sequence from a fresh world
// reproduces the same state bit-for-bit — the property the DFS's
// replay-based backtracking and the violation traces rely on.
func newWorld(sc *scene, cov *core.TransitionCoverage) *world {
	scn := sc.scn
	n := len(scn.Devices)
	banks := scn.LLCBanks
	if banks < 1 {
		banks = 1
	}
	llcID := proto.NodeID(n) // first bank; line l lives at proto.HomeOf(llcID, banks, l)
	memID := proto.NodeID(n + banks)

	w := &world{
		sc:  sc,
		eng: sim.New(),
		st:  stats.New(),
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
		d := &mdev{id: id, name: sc.names[i], ops: spec.Ops}
		d.done = func(v uint32) { w.complete(d, v) }
		d.flushed = func() { d.inflight = false }
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
			dc.AtomicsAtLLC = sc.atomicsAtLLC
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

func (sc *scene) allow(a memaddr.Addr, v uint32) {
	set := sc.allowed[a]
	if set == nil {
		set = make(map[uint32]bool)
		sc.allowed[a] = set
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
	for k, m := range w.pending {
		if !slices.ContainsFunc(w.pending[:k], func(o *proto.Message) bool { return o.Src == m.Src && o.Dst == m.Dst }) {
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
	if op.Kind == device.OpFence {
		// A release fence drains the write buffer (how the device drivers
		// implement Rel). Flush is never rejected; its done callback may
		// fire synchronously when nothing is buffered.
		d.next++
		d.inflight = true
		d.l1.Flush(d.flushed)
		return
	}
	// inflight is set before Access: stores (and hits) may invoke the
	// completion callback synchronously.
	d.cur, d.curIdx = op, d.next
	d.inflight = true
	if !d.l1.Access(op, d.done) {
		d.inflight = false
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
				w.stuck = fmt.Sprintf("%s: op %d permanently rejected by quiescent L1", d.name, d.next)
			}
		}
		return
	}
	d.next++
}

// complete is d's access completion callback: the op at curIdx returned v.
func (w *world) complete(d *mdev, v uint32) {
	d.inflight = false
	// An atomic's return is the pre-op value: checked against the same
	// legal set (it is closed under subsets of the scripted adds).
	op := d.cur
	if op.Kind == device.OpLoad || op.Kind == device.OpAtomic {
		if !w.sc.allowed[op.Addr][v] {
			w.dataViol = fmt.Sprintf(
				"%s: op %d load of word %d returned %d, a value never written to that word",
				d.name, d.curIdx, op.Addr.WordIndex(), v)
		}
	}
}

func (w *world) deliver(k int) {
	m := w.pending[k]
	w.pending = slices.Delete(w.pending, k, k+1)
	w.net.Deliver(m)
}

// trace renders the actions of path, from the scene's initial state, as
// trace lines. It is one more replay, the only one that formats actions,
// and records no coverage: exploration already has.
func (sc *scene) trace(path []int) []string {
	w := newWorld(sc, nil)
	lines := make([]string, len(path))
	for i, a := range path {
		lines[i] = w.describe(a)
	}
	return lines
}

// describe applies action a like apply and returns its trace line, the
// one place trace text is formatted: a message is named before it is
// delivered, and an issue's line says whether the L1 accepted it.
func (w *world) describe(a int) string {
	if a >= len(w.devs) {
		line := fmt.Sprintf("deliver %s", w.pending[a-len(w.devs)])
		w.apply(a)
		return line
	}
	d := w.devs[a]
	idx, op := d.next, d.ops[d.next]
	w.apply(a)
	switch {
	case op.Kind == device.OpFence:
		return fmt.Sprintf("%s: release fence", d.name)
	case d.next == idx:
		return fmt.Sprintf("%s: op %d (%s w%d) rejected by L1", d.name, idx, op.Kind, op.Addr.WordIndex())
	case op.Kind == device.OpStore:
		return fmt.Sprintf("%s: store w%d=%d", d.name, op.Addr.WordIndex(), op.Value)
	case op.Kind == device.OpAtomic:
		return fmt.Sprintf("%s: fetchadd w%d+=%d", d.name, op.Addr.WordIndex(), op.Value)
	default:
		return fmt.Sprintf("%s: load w%d", d.name, op.Addr.WordIndex())
	}
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
