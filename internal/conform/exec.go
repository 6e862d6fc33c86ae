package conform

import (
	"fmt"

	"spandex"
)

// DefaultMaxTime bounds one conformance run at 10 ms of simulated time —
// three orders of magnitude beyond a healthy case's execution, so hitting
// it means a protocol deadlock, while keeping a deadlocked spin loop cheap
// to abandon.
const DefaultMaxTime spandex.Time = 10_000_000_000

// RunOpts configures how cases are executed.
type RunOpts struct {
	// MaxTime overrides DefaultMaxTime (0 keeps the default).
	MaxTime spandex.Time
	// Params overrides the FastParams base geometry (cores and CUs are
	// still resized to fit the case).
	Params *spandex.SystemParams
}

// PressureParams returns a machine whose every cache level holds only a
// handful of lines (4-line L1s, 1-2 KB shared levels), so generated cases
// constantly evict and write back. Conformance must hold regardless of
// geometry, and the eviction-dominated regime reaches protocol paths —
// ReqWB, owner recalls, silent Shared drops — that the default FastParams
// footprint never exercises. This is the regime that exposed the
// hierarchical directory's data-less upgrade-grant bug.
func PressureParams() *spandex.SystemParams {
	p := spandex.FastParams()
	p.L1SizeBytes = 256
	p.L1Ways = 2
	p.SpandexLLCBytes = 1024
	p.SpandexLLCWays = 2
	p.GPUL2Bytes = 1024
	p.GPUL2Ways = 2
	p.L3Bytes = 2048
	p.L3Ways = 2
	return &p
}

// BankedParams returns the FastParams machine with the Spandex LLC sharded
// into two address-interleaved banks on a mesh NoC. Every generated case
// then spreads its layout across two independent directories, and the
// oracle requires behaviour observationally identical to the flat LLC (the
// hierarchical baseline is never banked, so the cross-config comparison is
// itself a flat-vs-banked check).
func BankedParams() *spandex.SystemParams {
	p := spandex.FastParams()
	p.LLCBanks = 2
	p.Topology = spandex.TopoMesh
	return &p
}

// BankedPressureParams combines the sharded LLC with eviction-dominated
// geometry: two banks of four lines each (2 sets × 2 ways per bank), so
// the per-bank directory is under constant replacement pressure and the
// eviction/revocation/write-back races cross bank boundaries.
func BankedPressureParams() *spandex.SystemParams {
	p := PressureParams()
	p.SpandexLLCBytes = 512
	p.LLCBanks = 2
	p.Topology = spandex.TopoMesh
	return p
}

// MachineOpts returns the RunOpts of the machine that spandex-fuzz's
// -pressure and -banks flags, and a Case's Pressure and Banks, name:
// PressureParams under pressure; with banks > 0, BankedParams (or
// BankedPressureParams under pressure) sharded into that many banks;
// otherwise the default FastParams machine. spandex-fuzz fuzzes under it
// and replays a case under the machine the case records.
func MachineOpts(pressure bool, banks int) RunOpts {
	var ro RunOpts
	switch {
	case pressure && banks > 0:
		ro.Params = BankedPressureParams()
		ro.Params.LLCBanks = banks
	case pressure:
		ro.Params = PressureParams()
	case banks > 0:
		ro.Params = BankedParams()
		ro.Params.LLCBanks = banks
	}
	return ro
}

// Outcome is one case's observed behaviour on one configuration.
type Outcome struct {
	Config string
	// Res carries the run's measurements, including Transitions (the
	// dynamic coverage the fuzzer feeds into the transition-graph
	// cross-check).
	Res spandex.Result
	// RunErr is a run-level failure: deadlock, exceeded MaxTime, or a
	// coherence invariant violation. Logs may be partial and Image nil.
	RunErr error
	// Logs[t] is thread t's observation log: the value of every plain
	// load, in program order.
	Logs [][]uint32
	// SelfErrs[t] is thread t's first divergence from the model-predicted
	// log, or nil. The thread keeps executing after recording it, so the
	// barrier protocol stays intact and the full logs and image remain
	// comparable across configurations.
	SelfErrs []error
	// Image is the coherent post-run read-back of every layout word (the
	// architectural final memory state, read through the real protocol),
	// and ImageErr its first divergence from the model.
	Image    []uint32
	ImageErr error
}

// SelfErr returns the first per-thread model divergence, or nil.
func (o *Outcome) SelfErr() error {
	for _, err := range o.SelfErrs {
		if err != nil {
			return err
		}
	}
	return nil
}

// caseWorkload adapts a Case to the workload API for one run. A fresh
// value is built per run (never registered), so the capture buffers it
// carries are private to that run.
type caseWorkload struct {
	c   *Case
	l   *caseLayout
	e   *Expectation
	out *Outcome
}

func (w *caseWorkload) Meta() spandex.Meta {
	return spandex.Meta{
		Name:  "conform:" + w.c.Name,
		Suite: "Conformance",
		Pattern: "generated DRF region-discipline program; exact-value " +
			"checks on every load (differential oracle)",
		Partitioning:    "data",
		Synchronization: "coarse-grain (global barriers)",
		Sharing:         "flat",
		Locality:        "low",
		Params:          fmt.Sprintf("threads: %d, phases: %d, ops: %d", len(w.c.Threads), w.c.Phases, w.c.NumOps()),
	}
}

func (w *caseWorkload) body(t int) func(th *spandex.Thread) {
	c, l, e, out := w.c, w.l, w.e, w.out
	return func(th *spandex.Thread) {
		li := 0
		for p := 0; p < c.Phases; p++ {
			for _, op := range c.Threads[t].Ops[p] {
				switch op.Kind {
				case OpLoad:
					got := th.Load(l.addrOf(c, t, op))
					out.Logs[t] = append(out.Logs[t], got)
					if want := e.Logs[t][li]; got != want && out.SelfErrs[t] == nil {
						out.SelfErrs[t] = fmt.Errorf("thread %d load #%d (phase %d, %s): observed %#x, model predicts %#x",
							t, li, p, l.describe(c, l.addrOf(c, t, op)), got, want)
					}
					li++
				case OpStore:
					th.Store(l.addrOf(c, t, op), op.Val)
				case OpFetchAdd:
					th.FetchAdd(l.addrOf(c, t, op), op.Val, false, false)
				case OpFence:
					th.Fence(true, true)
				case OpCompute:
					th.Compute(op.Val%256 + 1)
				}
			}
			th.Wait(l.barrier)
		}
	}
}

func (w *caseWorkload) Build(m spandex.Machine, seed uint64) *spandex.Program {
	p := &spandex.Program{Init: w.c.inits(w.l)}
	var cpu []spandex.OpStream
	var gpu [][]spandex.OpStream
	for t, th := range w.c.Threads {
		s := spandex.GoThread(w.body(t))
		if th.OnGPU {
			gpu = append(gpu, []spandex.OpStream{s})
		} else {
			cpu = append(cpu, s)
		}
	}
	p.CPU, p.GPU = cpu, gpu
	p.Validate = func(read func(spandex.Addr) uint32) error {
		img := make([]uint32, len(w.l.words))
		for i, a := range w.l.words {
			img[i] = read(a)
		}
		w.out.Image = img
		for i, got := range img {
			if want := w.e.Image[i]; got != want {
				w.out.ImageErr = fmt.Errorf("final image: %s (%#x) = %#x, model predicts %#x",
					w.l.describe(w.c, w.l.words[i]), uint64(w.l.words[i]), got, want)
				break
			}
		}
		// Divergences are reported through the Outcome, not as a run error:
		// the oracle wants the complete image from every configuration so
		// it can tell a protocol bug from a model bug.
		return nil
	}
	return p
}

// params shapes the simulated machine to the case: one CPU core or GPU CU
// per thread (one warp per CU keeps the thread↔device mapping direct), at
// least one CPU core so post-run validation has a coherent reader.
func (c *Case) params(base *spandex.SystemParams) spandex.SystemParams {
	p := spandex.FastParams()
	if base != nil {
		p = *base
	}
	nCPU, nGPU := 0, 0
	for _, th := range c.Threads {
		if th.OnGPU {
			nGPU++
		} else {
			nCPU++
		}
	}
	p.Devices = []spandex.DeviceSpec{
		{Class: spandex.ClassCPU, Count: maxInt(nCPU, 1)},
		{Class: spandex.ClassGPU, Count: nGPU},
	}
	p.WarpsPerCU = 1
	return p
}

// RecheckDeterminism runs a case twice on one configuration and explains
// the first divergent measurement if the runs were not bit-identical. The
// explanation names a counter (spandex.DiffResults / stats.FirstDiff), not
// a fingerprint hash. A non-nil result means the failure being chased is
// itself nondeterministic — simulator bug territory — and shrinking
// against it would thrash.
func RecheckDeterminism(c *Case, config string, ro RunOpts) error {
	a, b := RunCase(c, config, ro), RunCase(c, config, ro)
	if (a.RunErr == nil) != (b.RunErr == nil) {
		return fmt.Errorf("run error is nondeterministic: %v vs %v", a.RunErr, b.RunErr)
	}
	return spandex.DiffResults(a.Res, b.Res)
}

// RunCase executes a case on one configuration and captures everything the
// differential oracle compares. The case must already be Validated.
// A panic inside the simulated protocol (a stuck-state assertion firing)
// is recovered into RunErr so the oracle treats it like any other failing
// run — shrinkable and replayable — instead of killing the fuzzer.
func RunCase(c *Case, config string, ro RunOpts) (out *Outcome) {
	out = newOutcome(c, config)
	defer recoverRun(out)
	l := c.layout()
	runCase(c, l, c.Expect(l), config, ro, out)
	return out
}

// runShared is RunCase over a layout and expectation computed once for the
// case: CheckCase shares them, read-only, across its concurrent runs.
func runShared(c *Case, l *caseLayout, e *Expectation, config string, ro RunOpts) (out *Outcome) {
	out = newOutcome(c, config)
	defer recoverRun(out)
	runCase(c, l, e, config, ro, out)
	return out
}

func newOutcome(c *Case, config string) *Outcome {
	return &Outcome{
		Config:   config,
		Logs:     make([][]uint32, len(c.Threads)),
		SelfErrs: make([]error, len(c.Threads)),
	}
}

// recoverRun turns a panic inside a run into its RunErr.
func recoverRun(out *Outcome) {
	if r := recover(); r != nil {
		out.RunErr = fmt.Errorf("panic: %v", r)
	}
}

func runCase(c *Case, l *caseLayout, e *Expectation, config string, ro RunOpts, out *Outcome) {
	w := &caseWorkload{c: c, l: l, e: e, out: out}
	res, err := spandex.Run(w, c.options(config, ro))
	out.Res = res
	out.RunErr = err
}

// options are the spandex.Run options of one run of the case.
func (c *Case) options(config string, ro RunOpts) spandex.Options {
	params := c.params(ro.Params)
	maxTime := ro.MaxTime
	if maxTime == 0 {
		maxTime = DefaultMaxTime
	}
	return spandex.Options{
		ConfigName:           config,
		Params:               &params,
		Seed:                 c.Seed,
		CheckInvariants:      true,
		CheckEveryTransition: true,
		RecordTransitions:    true,
		Validate:             true,
		MaxTime:              maxTime,
	}
}
