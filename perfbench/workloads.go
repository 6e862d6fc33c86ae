package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"spandex"
	"spandex/internal/conform"
	"spandex/internal/mcheck"
	"spandex/internal/proto"
)

// A workload is a fixed list of units run one after another: the next unit
// starts when the previous unit's verdict is in (a closed loop with one
// client).
type workload struct {
	name string
	// units builds the unit list from the seed. This is the set-up that
	// setup_s measures, so it stays cheap: machines are built per unit.
	units func(seed uint64) []unit
}

// A unit is one verdict: a sweep cell, a fuzz case or a model-checking run.
type unit struct {
	name string
	run  func(tr *tracer) outcome
}

// outcome is what a unit reports: its output check, a fingerprint of the
// modelled behaviour, and the exact counts the metrics are derived from.
type outcome struct {
	err error
	fp  uint64
	n   counts
}

// workloads is in BENCHMARK.json order; README.md says why each was chosen.
var workloads = []workload{
	{name: "paper-sweep", units: paperSweep},
	{name: "fuzz-conform", units: fuzzConform},
	{name: "mcheck-suite", units: mcheckSuite},
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// paperSweep is the Figure 2 and Figure 3 workloads on the six Table V
// configurations in matrix order, on the default (Table VI, direct NoC)
// machine. The seed is each program's Build seed.
func paperSweep(seed uint64) []unit {
	var us []unit
	for _, wn := range append(spandex.Figure2Workloads(), spandex.Figure3Workloads()...) {
		w, err := spandex.WorkloadByName(wn)
		if err != nil {
			panic(err) // the figure lists only registered workloads
		}
		for _, cn := range spandex.ConfigNames() {
			us = append(us, unit{
				name: wn + "/" + cn,
				run:  func(tr *tracer) outcome { return runCell(tr, w, cn, seed) },
			})
		}
	}
	return us
}

// runCell is spandex.Run split into its public steps so each can be timed,
// and so the traced run can wrap the L1s and op streams.
func runCell(tr *tracer, w spandex.Workload, config string, seed uint64) (o outcome) {
	tr.begin(spanSystemNew)
	s, err := spandex.NewSystem(spandex.Options{ConfigName: config})
	tr.end()
	if err != nil {
		o.err = err
		return o
	}
	tr.wrapL1s(s)
	tr.begin(spanWorkloadBuild)
	prog := w.Build(s.Machine(), seed)
	tr.end()
	defer prog.Close()
	tr.wrapStreams(prog)
	tr.begin(spanSystemAttach)
	err = s.Attach(prog)
	tr.end()
	if err != nil {
		o.err = err
		return o
	}
	tr.begin(spanSystemRun)
	res, err := s.Run(0)
	tr.end()
	if err != nil {
		o.err = err
		return o
	}
	res.Workload = w.Meta().Name
	if len(res.Violations) > 0 {
		o.err = fmt.Errorf("%d invariant violations", len(res.Violations))
		return o
	}
	if prog.Validate != nil {
		tr.begin(spanValidate)
		err = prog.Validate(s.Reader())
		tr.end()
		if err != nil {
			o.err = fmt.Errorf("validation: %w", err)
			return o
		}
	}
	o.fp = res.Fingerprint()
	o.n.addResult(res)
	return o
}

// fuzzCases is the number of generated cases in one fuzz-conform pass.
const fuzzCases = 600

// fuzzConform runs conform.Generate then conform.CheckCase on all six
// configurations, with the per-transition checker on as the fuzzer has it by
// default. Case seeds are seed*fuzzCases+i, so each benchmark seed owns a
// disjoint block of cases; the geometries split 4:1:1 between FastParams,
// -pressure and -banks 2 -pressure, as `make fuzz` does.
func fuzzConform(seed uint64) []unit {
	geoms := []struct {
		name   string
		params *spandex.SystemParams
	}{
		{"default", nil},
		{"default", nil},
		{"default", nil},
		{"default", nil},
		{"pressure", conform.PressureParams()},
		{"banked-pressure", conform.BankedPressureParams()},
	}
	us := make([]unit, fuzzCases)
	for i := range us {
		g := geoms[i%len(geoms)]
		cs := seed*fuzzCases + uint64(i)
		us[i] = unit{
			name: fmt.Sprintf("%s/seed-%d", g.name, cs),
			run:  func(tr *tracer) outcome { return runCase(tr, cs, g.params) },
		}
	}
	return us
}

func runCase(tr *tracer, caseSeed uint64, params *spandex.SystemParams) (o outcome) {
	tr.begin(spanConformGenerate)
	c := conform.Generate(caseSeed, conform.GenParams{})
	tr.end()
	tr.begin(spanConformCheck)
	rep := conform.CheckCase(c, nil, conform.RunOpts{Params: params})
	tr.end()
	if rep.Failed() {
		o.err = rep.Err()
		return o
	}
	fps := make([]uint64, len(rep.Outcomes))
	for i, out := range rep.Outcomes {
		fps[i] = out.Res.Fingerprint()
		o.n.addResult(out.Res)
		for _, k := range out.Res.Transitions {
			o.n.checkedTransitions += k
		}
	}
	o.n.cases++
	o.fp = fingerprint(fps...)
	return o
}

// mcheckSuite explores every pairing x scenario under full reduction except
// the four fan6 runs and the Heavy scenarios, which are 91% of the full
// suite's time and stay under the mcheck-baseline gate. It takes no seed:
// the scenarios are scripted.
func mcheckSuite(uint64) []unit {
	var us []unit
	for _, p := range mcheck.Pairings() {
		for _, scn := range mcheck.Scenarios(p) {
			if scn.Heavy || scn.Name == "fan6" {
				continue
			}
			us = append(us, unit{
				name: p.String() + "/" + scn.Name,
				run:  func(tr *tracer) outcome { return runExplore(tr, scn) },
			})
		}
	}
	return us
}

func runExplore(tr *tracer, scn mcheck.Scenario) (o outcome) {
	tr.begin(spanMcheckExplore)
	res := mcheck.Explore(mcheck.Config{Scenario: scn})
	tr.end()
	if res.Violation != nil {
		o.err = res.Violation
		return o
	}
	if !res.Complete {
		o.err = fmt.Errorf("exploration incomplete after %d states", res.States)
		return o
	}
	o.fp = fingerprint(uint64(res.States), uint64(res.Transitions), uint64(res.MaxDepth),
		uint64(res.AmpleCommits), uint64(res.SleepSkips))
	o.n.ops = uint64(res.Transitions)
	o.n.states = uint64(res.States)
	o.n.transitions = uint64(res.Transitions)
	o.n.maxDepth = uint64(res.MaxDepth)
	o.n.ampleCommits = uint64(res.AmpleCommits)
	o.n.sleepSkips = uint64(res.SleepSkips)
	return o
}

// counts are the exact, host-independent totals of one pass. Every
// per-layer count metric is a ratio of these.
type counts struct {
	ops, simTime, bytes, events, msgs     uint64
	mesiHit, mesiMiss, dnHit, dnMiss      uint64
	gpuHit, gpuMiss                       uint64
	llcQueued, llcForwards, llcBlockedRvk uint64
	tuProbes, dirQueued, gpul2Queued      uint64
	cases, checkedTransitions             uint64
	states, transitions, maxDepth         uint64
	ampleCommits, sleepSkips              uint64
}

func (c *counts) addResult(r spandex.Result) {
	c.ops += r.Ops
	c.simTime += uint64(r.ExecTime)
	c.bytes += r.Traffic.TotalBytes(false)
	c.events += r.Events
	for cl := proto.Class(0); cl < proto.NumClasses; cl++ {
		c.msgs += r.Traffic.Messages[cl]
	}
	k := r.Counters
	c.mesiHit += k["mesil1.hit"]
	c.mesiMiss += k["mesil1.miss"]
	c.dnHit += k["dnl1.hit"]
	c.dnMiss += k["dnl1.miss"]
	c.gpuHit += k["gpul1.hit"]
	c.gpuMiss += k["gpul1.miss"]
	c.llcQueued += k["llc.queued"]
	c.llcForwards += k["llc.forwards"]
	c.llcBlockedRvk += k["llc.blocked.rvk"]
	c.tuProbes += k["tu.probe"]
	c.dirQueued += k["dir.queued"]
	c.gpul2Queued += k["gpul2.queued"]
}

func (c *counts) add(o counts) {
	c.ops += o.ops
	c.simTime += o.simTime
	c.bytes += o.bytes
	c.events += o.events
	c.msgs += o.msgs
	c.mesiHit += o.mesiHit
	c.mesiMiss += o.mesiMiss
	c.dnHit += o.dnHit
	c.dnMiss += o.dnMiss
	c.gpuHit += o.gpuHit
	c.gpuMiss += o.gpuMiss
	c.llcQueued += o.llcQueued
	c.llcForwards += o.llcForwards
	c.llcBlockedRvk += o.llcBlockedRvk
	c.tuProbes += o.tuProbes
	c.dirQueued += o.dirQueued
	c.gpul2Queued += o.gpul2Queued
	c.cases += o.cases
	c.checkedTransitions += o.checkedTransitions
	c.states += o.states
	c.transitions += o.transitions
	c.maxDepth = max(c.maxDepth, o.maxDepth)
	c.ampleCommits += o.ampleCommits
	c.sleepSkips += o.sleepSkips
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// exactMetrics are the per-layer metrics that repeat exactly for a given
// seed: later changes can diff them without a traced run.
func (c *counts) exactMetrics() map[string]float64 {
	return map[string]float64{
		"sim_time_us":                          float64(c.simTime) / 1e6,
		"traffic_bytes_per_op":                 ratio(c.bytes, c.ops),
		"workload.ops":                         float64(c.ops),
		"sim.events_per_op":                    ratio(c.events, c.ops),
		"noc.msgs_per_op":                      ratio(c.msgs, c.ops),
		"mesi.l1_hit_ratio":                    ratio(c.mesiHit, c.mesiHit+c.mesiMiss),
		"denovo.l1_hit_ratio":                  ratio(c.dnHit, c.dnHit+c.dnMiss),
		"gpucoh.l1_hit_ratio":                  ratio(c.gpuHit, c.gpuHit+c.gpuMiss),
		"core.llc_queued_per_op":               ratio(c.llcQueued, c.ops),
		"core.llc_forwards_per_op":             ratio(c.llcForwards, c.ops),
		"core.llc_blocked_rvk_per_op":          ratio(c.llcBlockedRvk, c.ops),
		"core.tu_probes_per_op":                ratio(c.tuProbes, c.ops),
		"hmesi.dir_queued_per_op":              ratio(c.dirQueued, c.ops),
		"hmesi.gpul2_queued_per_op":            ratio(c.gpul2Queued, c.ops),
		"conform.checked_transitions_per_case": ratio(c.checkedTransitions, c.cases),
		"mcheck.states":                        float64(c.states),
		"mcheck.transitions":                   float64(c.transitions),
		"mcheck.max_depth":                     float64(c.maxDepth),
		"mcheck.ample_commit_ratio":            ratio(c.ampleCommits, c.states),
		"mcheck.sleep_skips_per_transition":    ratio(c.sleepSkips, c.transitions),
	}
}

// fingerprint folds words into an FNV-1a hash.
func fingerprint(words ...uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	return h.Sum64()
}
