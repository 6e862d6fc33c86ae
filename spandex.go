// Package spandex is a simulator-backed reproduction of "Spandex: A
// Flexible Interface for Efficient Heterogeneous Coherence" (Alsop,
// Sinclair, Adve — ISCA 2018).
//
// The package assembles heterogeneous CPU-GPU systems in any of the
// paper's six cache configurations (Table V): a flat Spandex LLC directly
// interfacing MESI, DeNovo and GPU-coherence caches through per-device
// translation units, or the conventional hierarchical MESI baseline (CPU
// MESI L1s and an intermediate GPU L2 under a MESI L3 directory). Systems
// execute workload programs — the paper's microbenchmarks and
// collaborative applications live in internal/workload — on a
// deterministic discrete-event simulator, reporting execution time and
// network traffic broken down by request class exactly as the paper's
// Figures 2 and 3 do.
//
// Basic use:
//
//	w, _ := spandex.WorkloadByName("pr")
//	res, err := spandex.Run(w, spandex.Options{ConfigName: "SDD"})
//	fmt.Println(res.ExecTime, res.Traffic.TotalBytes(false))
package spandex

import (
	"fmt"

	"spandex/internal/config"
	"spandex/internal/core"
	"spandex/internal/denovo"
	"spandex/internal/device"
	"spandex/internal/dram"
	"spandex/internal/gpucoh"
	"spandex/internal/hmesi"
	"spandex/internal/memaddr"
	"spandex/internal/mesi"
	"spandex/internal/noc"
	"spandex/internal/obs"
	"spandex/internal/proto"
	"spandex/internal/sim"
	"spandex/internal/stats"
	"spandex/internal/workload"
)

// Re-exported configuration types.
type (
	// CacheConfig selects the LLC organization and L1 protocols (Table V).
	CacheConfig = config.CacheConfig
	// SystemParams sets sizes and latencies (Table VI).
	SystemParams = config.SystemParams
	// DeviceSpec is one homogeneous group of requestor devices
	// (SystemParams.Devices).
	DeviceSpec = config.DeviceSpec
	// DeviceClass names the kind of requestor a DeviceSpec instantiates.
	DeviceClass = config.DeviceClass
	// NoCTopology selects the interconnect model (SystemParams.Topology).
	NoCTopology = config.NoCTopology
	// Workload builds runnable programs.
	Workload = workload.Workload
	// Program is a built per-thread program.
	Program = workload.Program
	// Machine describes the simulated machine shape.
	Machine = workload.Machine

	// TraceEvent is one observability event (internal/obs): an operation
	// issue/completion, a message send/delivery, an LLC block/unblock/
	// forward, or an occupancy sample.
	TraceEvent = obs.Event
	// TraceEventSink consumes observability events as the simulation runs.
	TraceEventSink = obs.Sink
	// LatencyReport is the per-run latency attribution (Result.Latency).
	LatencyReport = obs.LatencyReport
)

// Configurations returns the paper's six cache configurations.
func Configurations() []CacheConfig { return config.TableV() }

// ConfigByName resolves a Table V configuration name (HMG … SDD).
func ConfigByName(name string) (CacheConfig, error) { return config.ByName(name) }

// DefaultParams returns the Table VI system parameters.
func DefaultParams() SystemParams { return config.DefaultParams() }

// FastParams returns a shrunken system for quick tests.
func FastParams() SystemParams { return config.FastParams() }

// Re-exported device-class and topology selectors.
const (
	ClassCPU = config.ClassCPU
	ClassGPU = config.ClassGPU

	TopoDirect = config.TopoDirect
	TopoMesh   = config.TopoMesh
	TopoRing   = config.TopoRing
)

// ScaleParams builds a scaled system: nCPU CPU-class and nGPU GPU-class
// requestors on a 2D-mesh NoC over a bank-sharded LLC (banks <= 0 picks
// one bank per 8 requestors, minimum 2).
func ScaleParams(nCPU, nGPU, banks int) SystemParams {
	return config.ScaleParams(nCPU, nGPU, banks)
}

// WorkloadByName resolves a registered workload ("indirection", "bc", …).
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// WorkloadNames lists all registered workloads.
func WorkloadNames() []string { return workload.Names() }

// Options configures a run.
type Options struct {
	// Config selects the cache configuration; ConfigName is a convenient
	// alternative and wins when non-empty.
	Config     CacheConfig
	ConfigName string
	// Params defaults to DefaultParams().
	Params *SystemParams
	// Seed feeds the workload's deterministic PRNG.
	Seed uint64
	// CheckInvariants enables the Spandex LLC coherence checker and the
	// post-run quiescence audit (Spandex configurations only).
	CheckInvariants bool
	// CheckEveryTransition additionally audits SWMR single-owner and
	// owned/sharer disjointness on every LLC state change, and the MESI
	// TUs' transient bookkeeping after every message. Implies
	// CheckInvariants, not RecordTransitions. Violations are collected
	// into Result.Violations (and fail the run) instead of panicking
	// mid-simulation, so a sweep reports them per-point. Measured cost is
	// a few percent of CPU time on the headline matrix; see EXPERIMENTS.md.
	CheckEveryTransition bool
	// ReqSOption2 switches the Spandex LLC to Table III's ReqS option (2)
	// (treat reads as ReqV; requestors downgrade after reading). The
	// evaluation default is options (1)/(3); this knob drives the
	// ReqS-policy ablation.
	ReqSOption2 bool
	// RecordTransitions installs a (state, message) coverage recorder on
	// the Spandex LLC: every pair the LLC processes is counted into
	// Result.Transitions, the dynamic half of the transition-graph
	// cross-check (cmd/spandex-graph -diff). It is the only option that
	// records: a checked run leaves Result.Transitions nil.
	RecordTransitions bool
	// Validate runs the workload's final-state oracle after the run.
	Validate bool
	// MaxTime aborts runs that exceed this simulated time (0 = 100 ms).
	MaxTime sim.Time
	// Observe installs the observability recorder. Every core/CU memory
	// operation gets a request id threaded through the protocol messages
	// it generates; the per-phase wait breakdown (network, LLC, blocked,
	// owner indirection, DRAM) is aggregated into Result.Latency, and the
	// system-level metrics (NoC utilization and queuing, LLC occupancy
	// and contention, DRAM bandwidth and rows, per-line sharing history)
	// into Result.Metrics. Observation never perturbs: Result.Fingerprint
	// is bit-identical with it on or off (test-enforced).
	Observe bool
	// TraceSink, when non-nil, receives every observability event as the
	// simulation runs (see NewJSONLTraceSink and NewChromeTraceSink for
	// ready-made exporters). It installs the recorder like Observe does.
	TraceSink TraceEventSink
}

// Result reports one run's measurements.
type Result struct {
	Config   string
	Workload string
	// ExecTime is when the last thread finished.
	ExecTime sim.Time
	// Traffic is interconnect traffic by request class (Figures 2 and 3).
	Traffic stats.Traffic
	// Counters carries protocol-internal event counts.
	Counters map[string]uint64
	// Ops is the total device operations executed.
	Ops uint64
	// Events is the number of engine events fired during the run. It is a
	// host-cost measure (perfbench's sim.events_per_op), not simulated
	// behaviour, so it is excluded from Fingerprint: pooling and event-
	// structure changes in the engine may alter it while the simulated
	// machine stays bit-identical.
	Events uint64
	// MemHash is a deterministic hash of the final DRAM image (captured
	// at quiescence, before any validation reads). Together with ExecTime,
	// Traffic, Counters and Ops it fingerprints a run for determinism
	// verification; see Result.Fingerprint.
	MemHash uint64
	// Violations lists every coherence invariant the checker saw broken
	// during the run (CheckInvariants/CheckEveryTransition), each carrying
	// the cycle, line address and (LLC state, message) context needed to
	// reproduce it standalone. A non-empty list also makes Run return an
	// error; the list is carried here so callers can report each violation,
	// not just the first. The list is capped (core.DefaultMaxViolations);
	// ViolationsDropped counts the overflow.
	Violations []Violation
	// ViolationsDropped counts violations discarded past the cap.
	ViolationsDropped int
	// Transitions maps "state|msg" to the number of times the LLC
	// processed that (state, message) pair (Options.RecordTransitions).
	Transitions map[string]uint64
	// Latency is the request-latency attribution of an observed run
	// (Options.Observe, Options.TraceSink or System.Observe). It is
	// deliberately excluded from Fingerprint: the fingerprint hashes
	// simulated behaviour, and observing must not change it.
	Latency *LatencyReport
	// Metrics is the system-level metrics report of an observed run: time
	// series, contention telemetry and the per-line sharing history. Like
	// Latency it is excluded from Fingerprint — metrics observe simulated
	// behaviour, they are not part of it.
	Metrics *MetricsReport
}

// Violation is one failed coherence invariant with reproduction context.
type Violation = core.Violation

// ExecMillis returns the execution time in milliseconds of simulated time.
func (r Result) ExecMillis() float64 { return float64(r.ExecTime) / 1e9 }

// System is an assembled simulated machine. Most callers use Run; building
// a System directly allows custom devices and instrumentation (see
// examples/customworkload and examples/protocoltrace).
type System struct {
	Engine *sim.Engine
	Stats  *stats.Stats
	Net    *noc.Network
	Mem    *dram.Memory

	cfg    CacheConfig
	params SystemParams

	// Spandex organization. LLC is bank 0; Banks lists every bank of the
	// address-interleaved LLC array (length 1 for the paper's flat LLC).
	LLC      *core.LLC
	Banks    []*core.LLC
	Checker  *core.Checker
	Coverage *core.TransitionCoverage
	// Hierarchical organization.
	Dir   *hmesi.Directory
	GPUL2 *hmesi.GPUL2

	CPUL1s []device.L1Cache
	GPUL1s []device.L1Cache

	// cpuIDs/gpuIDs are the NodeIDs of the CPU- and GPU-class devices in
	// construction order (CPUL1s[i] is node cpuIDs[i]); with Table VI's
	// [{CPU, 8}, {GPU, 16}] device list these are 0..7 and 8..23.
	cpuIDs []proto.NodeID
	gpuIDs []proto.NodeID

	cores    []*device.CPUCore
	cus      []*device.GPUCU
	doneAt   sim.Time
	liveDevs int

	obs *obs.Recorder
}

// NewSystem assembles a machine for the given options (without a program).
func NewSystem(opt Options) (*System, error) {
	cfg := opt.Config
	if opt.ConfigName != "" {
		c, err := config.ByName(opt.ConfigName)
		if err != nil {
			return nil, err
		}
		cfg = c
	}
	var params SystemParams
	if opt.Params != nil {
		params = *opt.Params
	} else {
		params = config.DefaultParams()
	}
	if cfg.LLC == config.LLCHierarchicalMESI && cfg.CPU != config.CPUMESI {
		return nil, fmt.Errorf("spandex: the hierarchical MESI LLC only supports MESI CPU caches (paper §IV-A)")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}

	s := &System{
		Engine: sim.New(),
		Stats:  stats.New(),
		cfg:    cfg,
		params: params,
	}

	nDev := params.NumDevices()
	extra := params.Banks() + 1 // LLC banks + memory
	if cfg.LLC == config.LLCHierarchicalMESI {
		extra = 3 // GPU L2 + L3 + memory (never banked)
	}
	var topo noc.Topology
	switch params.Topology {
	case config.TopoDirect:
		topo = noc.TopoDirect
	case config.TopoMesh:
		topo = noc.TopoMesh
	case config.TopoRing:
		topo = noc.TopoRing
	default:
		panic("spandex: unknown topology") // unreachable: Params.Validate ran
	}
	s.Net = noc.New(s.Engine, s.Stats, noc.Config{
		HopLatency:   sim.CPUCycles(params.NoCHopCycles),
		TicksPerByte: params.NoCTicksPerByte(),
		MeshWidth:    params.NoCMeshWidth,
		Topology:     topo,
	}, nDev+extra)

	switch cfg.LLC {
	case config.LLCSpandex:
		s.buildSpandex(opt)
	case config.LLCHierarchicalMESI:
		s.buildHierarchical(opt)
	}
	if opt.Observe {
		s.ensureObserver()
	}
	if opt.TraceSink != nil {
		s.Observe(opt.TraceSink)
	}
	return s, nil
}

// l1Observable is implemented by every L1 protocol controller that supports
// request tracing and occupancy sampling.
type l1Observable interface{ SetObserver(*obs.Recorder) }

// ensureObserver returns the system's recorder, creating it on first use
// and threading it through the NoC, DRAM, the LLC and every L1. Cores and
// CUs attach later (Attach). The recorder is purely passive: it never
// schedules events, touches stats, or alters any message, so an
// instrumented run is cycle-identical to a bare one.
func (s *System) ensureObserver() *obs.Recorder {
	if s.obs != nil {
		return s.obs
	}
	var cfg obs.Config
	nDev := s.params.NumDevices()
	if s.cfg.LLC == config.LLCHierarchicalMESI {
		// GPU L2 and the L3 directory both act as "the LLC" for phase
		// attribution; memory is one node further.
		cfg.LLCNodes = []proto.NodeID{proto.NodeID(nDev), proto.NodeID(nDev + 1)}
		cfg.MemID = proto.NodeID(nDev + 2)
	} else {
		banks := s.params.Banks()
		for b := 0; b < banks; b++ {
			cfg.LLCNodes = append(cfg.LLCNodes, proto.NodeID(nDev+b))
		}
		cfg.MemID = proto.NodeID(nDev + banks)
	}
	s.obs = obs.New(cfg)
	s.nameNodes(s.obs.Metrics())
	s.Net.SetObserver(s.obs)
	s.Mem.SetObserver(s.obs)
	for _, bank := range s.Banks {
		bank.SetObserver(s.obs)
	}
	for _, l1 := range s.CPUL1s {
		if o, ok := l1.(l1Observable); ok {
			o.SetObserver(s.obs)
		}
	}
	for _, l1 := range s.GPUL1s {
		if o, ok := l1.(l1Observable); ok {
			o.SetObserver(s.obs)
		}
	}
	return s.obs
}

func (s *System) buildSpandex(opt Options) {
	p := s.params
	nDev := p.NumDevices()
	banks := p.Banks()
	llcID := proto.NodeID(nDev)
	memID := proto.NodeID(nDev + banks)

	s.Banks = make([]*core.LLC, banks)
	for b := range s.Banks {
		s.Banks[b] = core.NewLLC(llcID+proto.NodeID(b), memID, s.Engine, s.Net, s.Stats, core.Config{
			SizeBytes:     p.SpandexLLCBytes / banks,
			Ways:          p.SpandexLLCWays,
			AccessLatency: sim.CPUCycles(p.L2HitCycles),
			ReqSOption2:   opt.ReqSOption2,
			BankStride:    banks,
			BankIndex:     b,
		})
	}
	s.LLC = s.Banks[0]
	s.Mem = dram.New(memID, s.Engine, s.Net, sim.CPUCycles(p.MemLatencyCycles))
	if opt.CheckInvariants || opt.CheckEveryTransition {
		s.Checker = core.NewChecker()
		// Collect instead of panicking so violations reach Result.Violations
		// with the run's measurements intact. One checker spans every bank:
		// lines are partitioned across banks, so per-line records never
		// collide, and device bookkeeping is naturally shared.
		s.Checker.Collect = true
		s.Checker.CheckEveryTransition = opt.CheckEveryTransition
		for _, bank := range s.Banks {
			bank.SetChecker(s.Checker)
		}
	}
	if opt.RecordTransitions {
		s.Coverage = core.NewTransitionCoverage()
		for _, bank := range s.Banks {
			bank.SetCoverage(s.Coverage)
		}
	}

	// Every L1 reaches the LLC through its translation unit: a MESI TU
	// for MESI, a pass-through one for DeNovo and GPU coherence, which
	// speak Spandex natively.
	s.addDevices(func(id proto.NodeID, class config.DeviceClass) device.L1Cache {
		var l1 l1Controller
		var probe core.DeviceProbe
		isMESI := class == config.ClassCPU && s.cfg.CPU == config.CPUMESI
		if isMESI {
			tu := core.NewMESITU(id, s.Engine, s.Net, s.Stats, llcID, p.TUTicks())
			tu.SetLLCBanks(banks)
			l1 = s.newL1(id, class, tu, llcID, banks)
			tu.Bind(l1.(*mesi.L1))
			tu.SetChecker(s.Checker)
			probe = tu
		} else {
			tu := core.NewPassTU(id, s.Engine, s.Net, p.TUTicks())
			l1 = s.newL1(id, class, tu, llcID, banks)
			tu.Bind(l1)
			probe = l1
		}
		for _, bank := range s.Banks {
			bank.RegisterDevice(id, isMESI)
		}
		if s.Checker != nil {
			s.Checker.AttachDevice(id, probe)
		}
		return l1
	})
}

func (s *System) buildHierarchical(opt Options) {
	p := s.params
	nDev := p.NumDevices()
	l2ID := proto.NodeID(nDev)
	dirID := proto.NodeID(nDev + 1)
	memID := proto.NodeID(nDev + 2)

	s.Dir = hmesi.NewDirectory(dirID, memID, s.Engine, s.Net, s.Stats, hmesi.DirConfig{
		SizeBytes:     p.L3Bytes,
		Ways:          p.L3Ways,
		AccessLatency: sim.CPUCycles(p.L3HitCycles),
	})
	s.Mem = dram.New(memID, s.Engine, s.Net, sim.CPUCycles(p.MemLatencyCycles))
	s.GPUL2 = hmesi.NewGPUL2(l2ID, s.Engine, s.Net, s.Stats, hmesi.L2Config{
		SizeBytes:     p.GPUL2Bytes,
		Ways:          p.GPUL2Ways,
		AccessLatency: sim.CPUCycles(p.L2HitCycles),
		ParentID:      dirID,
	})
	s.Dir.RegisterDevice(l2ID)

	// CPU L1s (MESI) sit directly under the L3 directory, GPU L1s under
	// the GPU L2; both talk to the network without a TU.
	s.addDevices(func(id proto.NodeID, class config.DeviceClass) device.L1Cache {
		parent := l2ID
		if class == config.ClassCPU {
			parent = dirID
		}
		l1 := s.newL1(id, class, s.Net.PortFor(id), parent, 1)
		s.Net.Register(id, l1)
		if class == config.ClassCPU {
			s.Dir.RegisterDevice(id)
		} else {
			s.GPUL2.RegisterChild(id)
		}
		return l1
	})
}

// l1Controller is what each L1 protocol's controller is: a device cache,
// a network endpoint and a probe of its owned words.
type l1Controller interface {
	device.L1Cache
	noc.Handler
	core.DeviceProbe
}

// newL1 builds device id's L1 in the protocol its class speaks under the
// configuration (Table V): MESI, DeNovo or GPU coherence, sized by the
// system parameters and sending through port toward parent, the first of
// banks address-interleaved parent nodes. Each protocol is configured
// here once, for both organizations.
func (s *System) newL1(id proto.NodeID, class config.DeviceClass, port noc.Port, parent proto.NodeID, banks int) l1Controller {
	p := s.params
	switch {
	case class == config.ClassCPU && s.cfg.CPU == config.CPUMESI:
		c := mesi.DefaultConfig(parent)
		c.ParentBanks, c.SizeBytes, c.Ways = banks, p.L1SizeBytes, p.L1Ways
		c.MSHREntries, c.StoreBufferEntries = p.MSHREntries, p.StoreBufferEntries
		return mesi.New(id, s.Engine, port, s.Stats, c)
	case class == config.ClassGPU && s.cfg.GPU == config.GPUCoherence:
		c := gpucoh.DefaultConfig(parent)
		c.ParentBanks, c.SizeBytes, c.Ways = banks, p.L1SizeBytes, p.L1Ways
		c.MSHREntries, c.WriteBufferEntries = p.MSHREntries, p.StoreBufferEntries
		return gpucoh.New(id, s.Engine, port, s.Stats, c)
	}
	gpu := class == config.ClassGPU
	c := denovo.DefaultConfig(parent, gpu)
	c.ParentBanks, c.SizeBytes, c.Ways = banks, p.L1SizeBytes, p.L1Ways
	c.MSHREntries, c.WriteBufferEntries = p.MSHREntries, p.StoreBufferEntries
	// SDG: CPU atomics are performed at the LLC (ReqWT+data) to match the
	// GPU-coherence strategy and avoid blocking states on inter-device
	// synchronization (paper §IV-A).
	c.AtomicsAtLLC = !gpu && s.cfg.GPU == config.GPUCoherence
	return denovo.New(id, s.Engine, port, s.Stats, c)
}

// addDevices builds every requestor in NodeID order (Params.Devices):
// build makes device id's L1, which is filed under its class. The two
// classes' slices share one backing array each for L1s and NodeIDs.
func (s *System) addDevices(build func(id proto.NodeID, class config.DeviceClass) device.L1Cache) {
	nCPU, n := s.params.NumCPUs(), s.params.NumDevices()
	l1s, ids := make([]device.L1Cache, n), make([]proto.NodeID, n)
	s.CPUL1s, s.GPUL1s = l1s[:0:nCPU], l1s[nCPU:nCPU]
	s.cpuIDs, s.gpuIDs = ids[:0:nCPU], ids[nCPU:nCPU]
	id := proto.NodeID(0)
	for _, spec := range s.params.Devices {
		for k := 0; k < spec.Count; k++ {
			l1 := build(id, spec.Class)
			if spec.Class == config.ClassCPU {
				s.CPUL1s, s.cpuIDs = append(s.CPUL1s, l1), append(s.cpuIDs, id)
			} else {
				s.GPUL1s, s.gpuIDs = append(s.GPUL1s, l1), append(s.gpuIDs, id)
			}
			id++
		}
	}
}

// Machine reports the shape workloads should be built for.
func (s *System) Machine() Machine {
	return Machine{
		CPUThreads: s.params.NumCPUs(),
		GPUCUs:     s.params.NumGPUs(),
		WarpsPerCU: s.params.WarpsPerCU,
		L1Bytes:    s.params.L1SizeBytes,
	}
}

// Attach binds a program's op streams to the machine's cores and seeds
// its initial data into memory.
func (s *System) Attach(prog *Program) error {
	if len(prog.CPU) > len(s.CPUL1s) || len(prog.GPU) > len(s.GPUL1s) {
		return fmt.Errorf("spandex: program shaped for a larger machine")
	}
	for _, init := range prog.Init {
		line := s.Mem.Peek(init.Addr.Line())
		line[init.Addr.WordIndex()] = init.Val
		s.Mem.Poke(init.Addr.Line(), line)
	}
	done := func() {
		s.liveDevs--
		if s.liveDevs == 0 {
			s.doneAt = s.Engine.Now()
		}
	}
	for i, stream := range prog.CPU {
		if stream == nil {
			continue
		}
		s.liveDevs++
		c := device.NewCPUCore(fmt.Sprintf("cpu%d", i), s.Engine, s.CPUL1s[i], stream, done)
		if s.obs != nil {
			c.SetObserver(s.obs, s.cpuIDs[i])
		}
		s.cores = append(s.cores, c)
	}
	for i, warps := range prog.GPU {
		var streams []device.OpStream
		for _, w := range warps {
			if w != nil {
				streams = append(streams, w)
			}
		}
		if len(streams) == 0 {
			continue
		}
		s.liveDevs++
		cu := device.NewGPUCU(fmt.Sprintf("cu%d", i), s.Engine, s.GPUL1s[i], streams, done)
		if s.obs != nil {
			cu.SetObserver(s.obs, s.gpuIDs[i])
		}
		s.cus = append(s.cus, cu)
	}
	return nil
}

// Run executes the attached program to completion and returns measurements.
func (s *System) Run(maxTime sim.Time) (Result, error) {
	if maxTime == 0 {
		maxTime = 100_000_000_000 // 100 ms of simulated time
	}
	for _, c := range s.cores {
		c.Start()
	}
	for _, cu := range s.cus {
		cu.Start()
	}
	if !s.Engine.RunUntil(maxTime) {
		stuck := ""
		for _, bank := range s.Banks {
			if r := bank.StuckReport(); r != "" {
				stuck += "; stuck LLC transactions:\n" + r
			}
		}
		return Result{}, fmt.Errorf("spandex: %s run exceeded %d ticks (possible deadlock or undersized MaxTime); %d threads unfinished%s",
			s.cfg.Name, maxTime, s.liveDevs, stuck)
	}
	if s.liveDevs != 0 {
		return Result{}, fmt.Errorf("spandex: event queue drained with %d threads unfinished (protocol deadlock)", s.liveDevs)
	}
	if s.Checker != nil {
		for _, bank := range s.Banks {
			if err := s.Checker.CheckQuiescent(bank); err != nil {
				return Result{}, err
			}
		}
	}
	var ops uint64
	for _, c := range s.cores {
		ops += c.Ops()
	}
	for _, cu := range s.cus {
		ops += cu.Ops()
	}
	counters := make(map[string]uint64, len(s.Stats.Counters))
	for k, v := range s.Stats.Counters {
		counters[k] = *v
	}
	res := Result{
		Config:   s.cfg.Name,
		ExecTime: s.doneAt,
		Traffic:  s.Stats.Traffic,
		Counters: counters,
		Ops:      ops,
		Events:   s.Engine.Fired(),
		MemHash:  s.Mem.Fingerprint(),
	}
	if s.Coverage != nil {
		res.Transitions = s.Coverage.Snapshot()
	}
	if s.obs != nil {
		res.Latency = s.obs.Report()
		res.Metrics = s.obs.Metrics().Report()
	}
	if s.Checker != nil && len(s.Checker.Violations) > 0 {
		res.Violations = append([]Violation(nil), s.Checker.Violations...)
		res.ViolationsDropped = s.Checker.Dropped
		return res, fmt.Errorf("spandex: %d coherence invariant violation(s); first: %s",
			len(res.Violations), res.Violations[0])
	}
	return res, nil
}

// Reader returns a coherent word-reader for post-run validation. Reads go
// through CPU core 0's cache, so they exercise the real protocol rather
// than peeking at simulator state. The cache is flash-invalidated once,
// here, not before every word: Run has drained the engine and nothing
// writes afterwards, so whatever a read brings into the cache (a DeNovo
// ReqV answer carries every non-owned word of the line) stays current for
// the reads after it. Reader panics if events are still pending, since
// then something could still write.
func (s *System) Reader() func(memaddr.Addr) uint32 {
	if n := s.Engine.Pending(); n != 0 {
		panic(fmt.Sprintf("spandex: Reader made with %d events pending", n))
	}
	l1 := s.CPUL1s[0]
	l1.SelfInvalidate()
	var v uint32
	ok := false
	done := func(x uint32) { v = x; ok = true }
	return func(a memaddr.Addr) uint32 {
		ok = false
		op := device.Op{Kind: device.OpLoad, Addr: a}
		for tries := 0; !l1.Access(op, done); tries++ {
			if !s.Engine.Step() || tries > 1<<20 {
				panic("spandex: validation read stalled")
			}
		}
		if !s.Engine.RunUntil(s.Engine.Now() + 1<<40) {
			panic("spandex: validation read did not drain")
		}
		if !ok {
			panic("spandex: validation read never completed")
		}
		return v
	}
}

// Run builds a system, runs the workload, optionally validates the final
// state, and returns the measurements. This is the main entry point.
// When the run or the oracle fails, Run returns the error together with
// whatever System.Run measured (Workload set), so callers can still report
// each violation, the run's transition coverage and its fingerprint.
//
// Run is safe for concurrent use: every call assembles a fully-isolated
// System (its own sim.Engine, Stats, Network, Memory, caches and program
// coroutines) and touches only two pieces of package-level mutable state:
// the workload registry, which is read-locked (Workload.Build
// implementations are stateless by contract, see workload.Register), and
// the sim package's pool of empty calendar wheels, which is safe for
// concurrent use and carries no state between runs (a wheel is returned
// only once its engine's queue has drained). Consequently a Run's
// Result is bit-identical whether it executes alone or concurrently with
// any number of other Runs; RunMatrix and VerifyDeterminism rely on this
// invariant, and `go test -race ./...` guards it in CI.
func Run(w Workload, opt Options) (Result, error) {
	s, err := NewSystem(opt)
	if err != nil {
		return Result{}, err
	}
	prog := w.Build(s.Machine(), opt.Seed)
	defer prog.Close()
	if err := s.Attach(prog); err != nil {
		return Result{}, err
	}
	res, err := s.Run(opt.MaxTime)
	res.Workload = w.Meta().Name
	if err != nil {
		return res, fmt.Errorf("%s on %s: %w", w.Meta().Name, s.cfg.Name, err)
	}
	if opt.Validate && prog.Validate != nil {
		if err := prog.Validate(s.Reader()); err != nil {
			return res, fmt.Errorf("%s on %s: validation failed: %w", w.Meta().Name, s.cfg.Name, err)
		}
	}
	return res, nil
}
