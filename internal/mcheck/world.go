package mcheck

import (
	"fmt"
	"slices"

	"spandex"
	"spandex/internal/core"
	"spandex/internal/detsort"
	"spandex/internal/device"
	"spandex/internal/dram"
	"spandex/internal/memaddr"
	"spandex/internal/noc"
	"spandex/internal/proto"
	"spandex/internal/sim"
)

// world is one concrete instantiation of a scenario: the machine
// spandex.NewSystem builds for the scene, whose network sends are
// intercepted into a pending pool instead of being delivered, so the
// explorer chooses the delivery order. Between actions the engine is
// drained, making each action an atomic protocol step: (deliver one
// message | issue one device op) plus every internal event it triggers.
type world struct {
	sc  *scene
	sys *spandex.System
	eng *sim.Engine
	net *noc.Network
	// llcs holds the LLC banks at NodeIDs [len(devs), len(devs)+len(llcs)).
	// A flat scenario (LLCBanks ≤ 1) has exactly one; a banked one has
	// Scenario.LLCBanks, each homing the lines proto.BankOf maps to it.
	llcs []*core.LLC
	mem  *dram.Memory
	chk  *core.Checker
	devs []*mdev

	// pending holds captured, not-yet-delivered messages in send order,
	// each a copy in a slot of slots, the world's free list of messages:
	// deliver and reset hand the slots back.
	pending []*proto.Message
	slots   sim.Pool[proto.Message]

	// dataViol records an out-of-thin-air load found inside an action.
	dataViol string
}

// scene is what every world of one exploration shares, read-only. An
// explorer builds it once; the replays behind every backtrack reuse it.
type scene struct {
	scn Scenario
	// opt describes the machine every world is (machineOf).
	opt spandex.Options
	// canon selects the canonical fingerprint (Reduction.Canon).
	canon bool
	// allowed maps each scripted address to the set of values a load of it
	// may legally return: the initial value plus everything any script
	// stores there (out-of-thin-air check).
	allowed map[memaddr.Addr]map[uint32]bool
	// names are the devices' display names, protocol plus index.
	names []string
	// ndev and nbank count the devices and LLC banks, which fix the
	// positions of a canonical string's sections (sectionOf).
	ndev, nbank int
	// lines lists, per bank, the scene lines it homes: every line a script
	// or the initial memory touches, in address order. No other line is
	// ever present in a bank.
	lines [][]memaddr.LineAddr
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
		scn:     scn,
		opt:     machineOf(scn),
		canon:   red.Canon,
		allowed: make(map[memaddr.Addr]map[uint32]bool),
		ndev:    len(scn.Devices),
		nbank:   max(scn.LLCBanks, 1),
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
	for _, a := range detsort.Keys(adds) {
		for _, d := range adds[a] {
			for _, v := range detsort.Keys(sc.allowed[a]) {
				sc.allow(a, v+d)
			}
		}
	}
	// Every touched word is in allowed, the initial ones included.
	sc.lines = make([][]memaddr.LineAddr, sc.nbank)
	for _, a := range detsort.Keys(sc.allowed) {
		line := a.Line()
		b := proto.BankOf(line, sc.nbank)
		if !slices.Contains(sc.lines[b], line) {
			sc.lines[b] = append(sc.lines[b], line)
		}
	}
	return sc
}

// machineOf returns the options of the machine scn runs on: the Table V
// Spandex configuration whose L1 protocols its scripts speak, and one
// device per script in script order, so script i is NodeID i. MESI
// devices are CPU-class and GPU-coherence devices GPU-class; DeNovo
// takes the side the other protocol leaves free, the CPU side when every
// script is DeNovo. The parameters carry the scenario's LLC and L1
// geometry and bank count; latencies stay Table VI's, which order
// nothing an action exposes: every action drains the engine.
func machineOf(scn Scenario) spandex.Options {
	// A Spandex configuration is named S, its CPU protocol (M for MESI, D
	// for DeNovo) and its GPU protocol (G for GPU coherence, D for DeNovo).
	cpu, gpu, denovo := "D", "D", false
	for _, d := range scn.Devices {
		switch d.Proto {
		case ProtoMESI:
			cpu = "M"
		case ProtoGPU:
			gpu = "G"
		case ProtoDeNovo:
			denovo = true
		default:
			panic("mcheck: unknown protocol " + string(d.Proto))
		}
	}
	if cpu == "M" && gpu == "G" && denovo {
		panic("mcheck: no Table V configuration composes mesi, denovo and gpu devices")
	}
	cfg, err := spandex.ConfigByName("S" + cpu + gpu)
	if err != nil {
		panic(err)
	}

	p := spandex.DefaultParams()
	p.Devices = make([]spandex.DeviceSpec, len(scn.Devices))
	for i, d := range scn.Devices {
		class := spandex.ClassGPU
		if d.Proto == ProtoMESI || d.Proto == ProtoDeNovo && cpu == "D" {
			class = spandex.ClassCPU
		}
		p.Devices[i] = spandex.DeviceSpec{Class: class, Count: 1}
	}
	p.LLCBanks = scn.LLCBanks
	llcBytes, llcWays := scn.LLCBytes, scn.LLCWays
	if llcBytes == 0 {
		llcBytes, llcWays = 8*memaddr.LineBytes, 2
	}
	p.SpandexLLCBytes, p.SpandexLLCWays = llcBytes*p.Banks(), llcWays
	p.L1SizeBytes, p.L1Ways = scn.DevBytes, scn.DevWays
	if p.L1SizeBytes == 0 {
		p.L1SizeBytes, p.L1Ways = 4*memaddr.LineBytes, 2
	}
	p.MSHREntries, p.StoreBufferEntries = 8, 8
	return spandex.Options{Config: cfg, Params: &p, CheckEveryTransition: true}
}

// mdev is one scripted device: an L1 controller plus an in-order script
// cursor. A device issues its next operation only after the previous one's
// completion callback fired (stores complete when buffered).
type mdev struct {
	name     string
	l1       device.L1Cache
	ops      []device.Op
	next     int
	inflight bool
	// done and flushed are the completion callbacks of every access and
	// flush the device issues, bound once in newWorld; cur and curIdx are
	// the access in flight and its script index, which done reads.
	done    func(uint32)
	flushed func()
	cur     device.Op
	curIdx  int
}

func (d *mdev) finished() bool { return d.next == len(d.ops) && !d.inflight }

// holder is a device probe that can hold deferred externals: the MESI TU
// and the DeNovo L1. GPU-coherence devices never hold externals.
type holder interface{ HoldsExternalFor(proto.NodeID) bool }

// readFacts reads into f the unit facts of w's unit section at position
// pos, an LLC bank or a device (unitFacts), as the encoder walks it.
func (w *world) readFacts(sc *scene, pos int, f *unitFacts) {
	if pos < sc.nbank {
		llc := w.llcs[pos]
		f.queued = llc.QueuedRequestorBits()
		for u := range sc.ndev {
			if llc.DirectoryMentions(u) {
				f.mentions |= 1 << uint(u)
			}
		}
		f.allocWait = llc.AllocWaiting()
		for i, line := range sc.lines[pos] {
			f.lines[i] = lineFacts{settled: llc.LineSettled(line), targets: llc.ProbeTargets(line)}
		}
		return
	}
	i := pos - sc.nbank - 2
	d := w.devs[i]
	f.next, f.inflight = d.next, d.inflight
	f.issuable, f.finished = !d.inflight && d.next < len(d.ops), d.finished()
	if h, ok := w.chk.Probe(proto.NodeID(i)).(holder); ok {
		for u := range sc.ndev {
			if h.HoldsExternalFor(proto.NodeID(u)) {
				f.holds |= 1 << uint(u)
			}
		}
	}
}

// newWorld builds a fresh system for the scene, recording LLC coverage
// into cov when it is non-nil. An explorer builds one, and recycles it for
// every replay (reset) and for a violation's trace. Construction is fully
// deterministic, and reset returns a world to exactly the state
// construction leaves, so replaying the same action sequence reproduces
// the same state bit-for-bit: the property the DFS's replay-based
// backtracking and the violation traces rely on.
func newWorld(sc *scene, cov *core.TransitionCoverage) *world {
	s, err := spandex.NewSystem(sc.opt)
	if err != nil {
		panic("mcheck: " + err.Error())
	}
	w := &world{
		sc: sc, sys: s, eng: s.Engine, net: s.Net,
		llcs: s.Banks, mem: s.Mem, chk: s.Checker,
		devs: make([]*mdev, sc.ndev),
	}
	s.Net.SetInterceptor(w.intercept)
	if cov != nil {
		for _, bank := range s.Banks {
			bank.SetCoverage(cov)
		}
	}

	// Script i drives NodeID i, the next L1 of its class.
	devs := make([]mdev, sc.ndev)
	cpus, gpus := s.CPUL1s, s.GPUL1s
	for i, spec := range sc.scn.Devices {
		d := &devs[i]
		d.name, d.ops = sc.names[i], spec.Ops
		if sc.opt.Params.Devices[i].Class == spandex.ClassCPU {
			d.l1, cpus = cpus[0], cpus[1:]
		} else {
			d.l1, gpus = gpus[0], gpus[1:]
		}
		d.done = func(v uint32) { w.complete(d, v) }
		d.flushed = func() { d.inflight = false }
		w.devs[i] = d
	}
	w.seed()
	return w
}

// reset returns w to the scene's initial state, as newWorld left it: the
// System as NewSystem built it (System.Reset), nothing pending, every
// script at its first op and the scenario's initial memory written again.
// The coverage binding, the interceptor and the scripts' bindings stay.
func (w *world) reset() {
	w.sys.Reset()
	for _, m := range w.pending {
		w.slots.Put(m)
	}
	w.pending = w.pending[:0]
	for _, d := range w.devs {
		d.next, d.inflight, d.cur, d.curIdx = 0, false, device.Op{}, 0
	}
	w.dataViol = ""
	w.seed()
}

// seed writes the scenario's initial memory.
func (w *world) seed() {
	for _, iv := range w.sc.scn.Init {
		line := w.mem.Peek(iv.Addr.Line())
		line[iv.Addr.WordIndex()] = iv.Val
		w.mem.Poke(iv.Addr.Line(), line)
	}
}

// intercept is the network's interceptor: it appends a copy of the sent
// message, in a recycled slot, to the pending pool. The message itself is
// the sender's scratch, which its next send overwrites.
func (w *world) intercept(m *proto.Message) {
	cp := w.slots.Get()
	*cp = *m
	w.pending = append(w.pending, cp)
}

func (sc *scene) allow(a memaddr.Addr, v uint32) {
	set := sc.allowed[a]
	if set == nil {
		set = make(map[uint32]bool)
		sc.allowed[a] = set
	}
	set[v] = true
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
	// completion callback synchronously. A rejected op stays next, to be
	// issued again; the explorer tells when that can never succeed
	// (explorer.stuck).
	d.cur, d.curIdx = op, d.next
	d.inflight = true
	if !d.l1.Access(op, d.done) {
		d.inflight = false
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

// deliver hands pending message k to its destination and its slot back:
// no handler keeps a delivered message (noc.Handler).
func (w *world) deliver(k int) {
	m := w.pending[k]
	w.pending = slices.Delete(w.pending, k, k+1)
	w.net.Deliver(m)
	w.slots.Put(m)
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

// violation returns the first violation the actions since the last reset
// recorded, if any: a checker invariant or an out-of-thin-air load.
func (w *world) violation() (kind, detail string, ok bool) {
	if len(w.chk.Violations) > 0 {
		return "invariant", w.chk.Violations[0].String(), true
	}
	if w.dataViol != "" {
		return "data", w.dataViol, true
	}
	return "", "", false
}
