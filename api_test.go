package spandex

import (
	"errors"
	"strings"
	"testing"

	"spandex/internal/workload"
)

func TestRenderTables(t *testing.T) {
	expects := map[string][]string{
		"I":   {"MESI", "GPU Coherence", "DeNovo", "self-invalidation", "write-through"},
		"II":  {"ReqV", "ReqWT+data", "ReqO+data", "flexible", "Owned Repl"},
		"III": {"ReqWT+data", "RvkO (blocking)", "non-owner"},
		"IV":  {"RspRvkO to LLC", "NackV", "Ack to LLC"},
		"V":   {"HMG", "SDD", "H-MESI", "Spandex"},
		"VI":  {"2 GHz", "700 MHz", "32 KB", "8 MB"},
		"VII": {"bc", "pr", "hsti", "trns", "rsct", "tqh", "fine-grain"},
	}
	for name, frags := range expects {
		out, err := RenderTable(name)
		if err != nil {
			t.Fatalf("table %s: %v", name, err)
		}
		for _, f := range frags {
			if !strings.Contains(out, f) {
				t.Errorf("table %s missing %q", name, f)
			}
		}
	}
	// Arabic numerals work too; bogus names do not.
	if _, err := RenderTable("3"); err != nil {
		t.Error("numeral alias broken")
	}
	if _, err := RenderTable("VIII"); err == nil {
		t.Error("bogus table accepted")
	}
}

func TestBuildFigureFromSyntheticCells(t *testing.T) {
	mk := func(cfg string, ns uint64, reqV uint64) Cell {
		c := Cell{Workload: "w", Config: cfg}
		c.Result.ExecTime = Time(ns)
		c.Result.Traffic.Add(0 /* ClassReqV */, int(reqV))
		return c
	}
	var cells []Cell
	times := map[string]uint64{"HMG": 100, "HMD": 90, "SMG": 80, "SMD": 70, "SDG": 60, "SDD": 50}
	for _, cn := range ConfigNames() {
		cells = append(cells, mk(cn, times[cn], times[cn]*10))
	}
	f, err := BuildFigure("test", []string{"w"}, cells)
	if err != nil {
		t.Fatal(err)
	}
	if f.Time["w"]["HMG"] != 1.0 {
		t.Fatalf("HMG not normalized to 1: %f", f.Time["w"]["HMG"])
	}
	if f.Time["w"]["SDD"] != 0.5 {
		t.Fatalf("SDD = %f, want 0.5", f.Time["w"]["SDD"])
	}
	h := f.ComputeHeadline()
	// Hbest = 0.9 (HMD), Sbest = 0.5 (SDD) → reduction 1-0.5/0.9 ≈ 0.444.
	if h.TimeReduction["w"] < 0.44 || h.TimeReduction["w"] > 0.45 {
		t.Fatalf("reduction = %f", h.TimeReduction["w"])
	}
	out := f.Render()
	for _, frag := range []string{"Execution time", "Network traffic", "AVERAGE", "ReqV"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q", frag)
		}
	}
}

func TestBuildFigureMissingBaseline(t *testing.T) {
	cells := []Cell{{Workload: "w", Config: "SDD"}}
	if _, err := BuildFigure("t", []string{"w"}, cells); err == nil {
		t.Fatal("missing HMG baseline accepted")
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	cells := Sweep([]string{"not-a-workload"}, []string{"SDD"}, Options{})
	if len(cells) != 1 || cells[0].Err == nil {
		t.Fatal("bad workload not reported")
	}
}

func TestOptionsConfigResolution(t *testing.T) {
	if _, err := NewSystem(Options{ConfigName: "nope"}); err == nil {
		t.Fatal("bad config name accepted")
	}
	// ConfigName wins over Config.
	cfgSDD, _ := ConfigByName("SDD")
	s, err := NewSystem(Options{Config: cfgSDD, ConfigName: "HMG"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Dir == nil || s.LLC != nil {
		t.Fatal("ConfigName did not win")
	}
}

// TestSystemShapeSpandex builds a Spandex system under each checking and
// recording option and checks its shape, that the checker is installed
// exactly when a checking option asks for it, and that only
// RecordTransitions fills Result.Transitions: a checked run records
// nothing.
func TestSystemShapeSpandex(t *testing.T) {
	p := FastParams()
	for _, tc := range []struct {
		name    string
		opt     Options
		checked bool
		records bool
	}{
		{"invariants", Options{CheckInvariants: true}, true, false},
		{"every-transition", Options{CheckEveryTransition: true}, true, false},
		{"record-transitions", Options{RecordTransitions: true}, false, true},
	} {
		opt := tc.opt
		opt.ConfigName, opt.Params = "SMD", &p
		s, err := NewSystem(opt)
		if err != nil {
			t.Fatal(err)
		}
		if s.LLC == nil || s.Dir != nil || s.GPUL2 != nil {
			t.Fatalf("%s: Spandex shape wrong", tc.name)
		}
		if len(s.CPUL1s) != p.NumCPUs() || len(s.GPUL1s) != p.NumGPUs() {
			t.Fatalf("%s: L1 counts %d/%d", tc.name, len(s.CPUL1s), len(s.GPUL1s))
		}
		if (s.Checker != nil) != tc.checked {
			t.Fatalf("%s: checker installed = %v, want %v", tc.name, s.Checker != nil, tc.checked)
		}
		m := s.Machine()
		if m.CPUThreads != p.NumCPUs() || m.GPUCUs != p.NumGPUs() || m.WarpsPerCU != p.WarpsPerCU {
			t.Fatalf("%s: machine shape %+v", tc.name, m)
		}
		res, err := Run(workload.DefaultLitmus(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if tc.records && len(res.Transitions) == 0 || !tc.records && res.Transitions != nil {
			t.Fatalf("%s: %d transition pairs recorded (nil map: %v)", tc.name, len(res.Transitions), res.Transitions == nil)
		}
	}
}

func TestSystemShapeHierarchical(t *testing.T) {
	p := FastParams()
	s, err := NewSystem(Options{ConfigName: "HMD", Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	if s.LLC != nil || s.Dir == nil || s.GPUL2 == nil {
		t.Fatal("hierarchical shape wrong")
	}
}

func TestAttachRejectsOversizedProgram(t *testing.T) {
	p := FastParams()
	s, _ := NewSystem(Options{ConfigName: "SDD", Params: &p})
	prog := &Program{}
	for i := 0; i < p.NumCPUs()+1; i++ {
		prog.CPU = append(prog.CPU, nil)
	}
	if err := s.Attach(prog); err == nil {
		t.Fatal("oversized program accepted")
	}
}

func TestReaderSeesInitAndWrites(t *testing.T) {
	p := FastParams()
	s, err := NewSystem(Options{ConfigName: "SDD", Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	lay := NewLayout()
	data := lay.Words(4)
	prog := &Program{
		Init: []WordInit{
			{Addr: WordAddr(data, 0), Val: 11},
			{Addr: WordAddr(data, 3), Val: 44},
		},
	}
	prog.CPU = append(prog.CPU, GoThread(func(t *Thread) {
		t.Store(WordAddr(data, 1), 22)
	}))
	defer prog.Close()
	if err := s.Attach(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	read := s.Reader()
	if read(WordAddr(data, 0)) != 11 || read(WordAddr(data, 1)) != 22 || read(WordAddr(data, 3)) != 44 {
		t.Fatal("reader returned wrong values")
	}
}

// TestReaderDropsStaleCopy ends a run with core 0's DeNovo L1 holding a
// stale Valid word: core 0 loads x and finishes, then a GPU thread
// overwrites x. The Reader's one flash must drop the stale copy.
func TestReaderDropsStaleCopy(t *testing.T) {
	p := FastParams()
	s, err := NewSystem(Options{ConfigName: "SDD", Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	lay := NewLayout()
	data := lay.Words(16)
	flag := lay.Words(16)
	x, y := WordAddr(data, 0), WordAddr(data, 1)
	prog := &Program{Init: []WordInit{{Addr: x, Val: 1}, {Addr: y, Val: 5}}}
	prog.CPU = append(prog.CPU, GoThread(func(t *Thread) {
		t.Load(x)
		t.AtomicStore(flag, 1, true)
	}))
	prog.GPU = append(prog.GPU, []OpStream{GoThread(func(t *Thread) {
		t.SpinUntilGE(flag, 1)
		t.Store(x, 2)
		t.Fence(false, true)
	})})
	defer prog.Close()
	if err := s.Attach(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	read := s.Reader()
	if got := read(x); got != 2 {
		t.Fatalf("read x = %d after the GPU wrote 2", got)
	}
	if got := read(y); got != 5 {
		t.Fatalf("read y = %d, want 5", got)
	}
}

func TestReaderPanicsWithEventsPending(t *testing.T) {
	p := FastParams()
	s, err := NewSystem(Options{ConfigName: "SDD", Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	prog := &Program{}
	prog.CPU = append(prog.CPU, GoThread(func(t *Thread) { t.Compute(1000) }))
	defer prog.Close()
	if err := s.Attach(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(1); err == nil {
		t.Fatal("a 1000-cycle thread finished within 1 tick")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reader made with events pending did not panic")
		}
	}()
	s.Reader()
}

func TestObserveMessagesFires(t *testing.T) {
	p := FastParams()
	s, err := NewSystem(Options{ConfigName: "SDD", Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	s.Observe(TraceFunc(func(ev TraceEvent) {
		if ev.Kind == EvMsgDeliver && ev.Msg.String() != "" {
			n++
		}
	}))
	prog := &Program{}
	prog.CPU = append(prog.CPU, GoThread(func(t *Thread) {
		t.FetchAdd(0x40000, 1, false, false)
	}))
	defer prog.Close()
	s.Attach(prog)
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("trace never fired")
	}
}

// TestParamVariations runs litmus on non-default geometries to catch
// size/associativity assumptions.
func TestParamVariations(t *testing.T) {
	if testing.Short() {
		t.Skip("param sweep in -short mode")
	}
	lit := workload.DefaultLitmus()
	variants := []func(*SystemParams){
		func(p *SystemParams) { p.L1SizeBytes = 8 * 1024; p.L1Ways = 4 },
		func(p *SystemParams) { p.SpandexLLCBytes = 64 * 1024; p.L3Bytes = 64 * 1024; p.GPUL2Bytes = 64 * 1024 },
		func(p *SystemParams) { p.StoreBufferEntries = 8; p.MSHREntries = 8 },
		func(p *SystemParams) { p.NoCBytesPerCyc = 4; p.NoCHopCycles = 10 },
		func(p *SystemParams) {
			p.WarpsPerCU = 1
			p.Devices = []DeviceSpec{{Class: ClassCPU, Count: 2}, {Class: ClassGPU, Count: 4}}
		},
		func(p *SystemParams) { p.MemLatencyCycles = 500 },
	}
	for i, v := range variants {
		for _, cn := range []string{"HMD", "SMG", "SDD"} {
			p := FastParams()
			v(&p)
			if _, err := Run(lit, Options{ConfigName: cn, Params: &p, Seed: uint64(i + 1),
				CheckInvariants: true, Validate: true}); err != nil {
				t.Errorf("variant %d on %s: %v", i, cn, err)
			}
		}
	}
}

func TestResultHelpers(t *testing.T) {
	var r Result
	r.ExecTime = 2_500_000_000 // 2.5 ms in ps
	if r.ExecMillis() != 2.5 {
		t.Fatalf("ExecMillis = %f", r.ExecMillis())
	}
}

func TestConfigNamesOrder(t *testing.T) {
	names := ConfigNames()
	want := []string{"HMG", "HMD", "SMG", "SMD", "SDG", "SDD"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v", names)
		}
	}
	if len(Figure2Workloads()) != 3 || len(Figure3Workloads()) != 6 {
		t.Fatal("figure workload lists wrong")
	}
}

// failingOracle wraps a workload so that its final-state oracle always
// fails.
type failingOracle struct{ Workload }

func (w failingOracle) Build(m Machine, seed uint64) *Program {
	p := w.Workload.Build(m, seed)
	p.Validate = func(func(Addr) uint32) error { return errors.New("oracle rejects every image") }
	return p
}

// A run whose oracle fails still returns what the simulation measured:
// callers report its violations, coverage and fingerprint.
func TestRunKeepsResultOnFailure(t *testing.T) {
	p := FastParams()
	opt := Options{ConfigName: "SDD", Params: &p, Seed: 3}
	want, err := Run(workload.DefaultLitmus(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Validate = true
	got, err := Run(failingOracle{workload.DefaultLitmus()}, opt)
	if err == nil || !strings.Contains(err.Error(), "validation failed") {
		t.Fatalf("err = %v, want a validation failure", err)
	}
	if got.Workload != want.Workload || got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("failing run returned %s fingerprint %#x, want %s %#x",
			got.Workload, got.Fingerprint(), want.Workload, want.Fingerprint())
	}
}
