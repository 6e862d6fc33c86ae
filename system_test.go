package spandex

import (
	"maps"
	"testing"

	"spandex/internal/workload"
)

// TestLitmusAllConfigurations runs the randomized DRF conformance program
// on every Table V configuration with full invariant checking and final-
// state validation. This is the system-level SC-for-DRF oracle
// (paper §III-E): any stale read or lost write in any protocol fails here.
func TestLitmusAllConfigurations(t *testing.T) {
	lit := workload.DefaultLitmus()
	for _, cfg := range Configurations() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			params := FastParams()
			res, err := Run(lit, Options{
				Config:          cfg,
				Params:          &params,
				Seed:            42,
				CheckInvariants: true,
				Validate:        true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.ExecTime == 0 || res.Ops == 0 {
				t.Fatalf("suspicious result: %+v", res)
			}
			if res.Traffic.TotalBytes(false) == 0 {
				t.Fatal("no interconnect traffic recorded")
			}
		})
	}
}

// TestLitmusSeeds varies the random seed on two representative configs.
func TestLitmusSeeds(t *testing.T) {
	lit := workload.DefaultLitmus()
	for _, name := range []string{"HMG", "SDD"} {
		for seed := uint64(1); seed <= 5; seed++ {
			params := FastParams()
			_, err := Run(lit, Options{
				ConfigName:      name,
				Params:          &params,
				Seed:            seed,
				CheckInvariants: true,
				Validate:        true,
			})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

// TestDeterminism: identical options produce bit-identical results.
func TestDeterminism(t *testing.T) {
	lit := workload.DefaultLitmus()
	run := func() Result {
		params := FastParams()
		res, err := Run(lit, Options{ConfigName: "SMD", Params: &params, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.ExecTime != b.ExecTime || a.Traffic != b.Traffic || a.Ops != b.Ops {
		t.Fatalf("nondeterministic: %v vs %v", a.ExecTime, b.ExecTime)
	}
}

// TestHierarchicalRejectsDeNovoCPU: Table V constraint.
func TestHierarchicalRejectsDeNovoCPU(t *testing.T) {
	cfg := CacheConfig{Name: "HDG", LLC: 1, CPU: 1, GPU: 0}
	if _, err := NewSystem(Options{Config: cfg}); err == nil {
		t.Fatal("H-MESI with DeNovo CPU must be rejected")
	}
}

// TestSystemResetMatchesFresh uses a machine of each Spandex configuration
// without a program, through validation reads that touch the L1s, the TUs,
// the LLC, DRAM, the links and the counters, then resets it: the litmus
// program must then run on it exactly as on a freshly built machine, with
// the same fingerprint, event count and transition coverage.
func TestSystemResetMatchesFresh(t *testing.T) {
	lit := workload.DefaultLitmus()
	for _, name := range []string{"SMG", "SMD", "SDG", "SDD"} {
		params := FastParams()
		opt := Options{ConfigName: name, Params: &params, Seed: 7, CheckEveryTransition: true, RecordTransitions: true}
		run := func(s *System) Result {
			prog := lit.Build(s.Machine(), opt.Seed)
			defer prog.Close()
			if err := s.Attach(prog); err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res
		}
		used, err := NewSystem(opt)
		if err != nil {
			t.Fatal(err)
		}
		read := used.Reader()
		for w := 0; w < 64; w++ {
			read(WordAddr(0, w*5))
		}
		if used.Engine.Now() == 0 || len(used.Stats.Counters) == 0 {
			t.Fatalf("%s: the validation reads left no trace to reset", name)
		}
		used.Reset()
		fresh, err := NewSystem(opt)
		if err != nil {
			t.Fatal(err)
		}
		got, want := run(used), run(fresh)
		if got.Fingerprint() != want.Fingerprint() || got.Events != want.Events || !maps.Equal(got.Transitions, want.Transitions) {
			t.Errorf("%s: the reset machine ran %d events to %016x, a fresh one %d to %016x",
				name, got.Events, got.Fingerprint(), want.Events, want.Fingerprint())
		}
	}
}

// TestSystemResetRejects checks the machines Reset refuses: a
// hierarchical one, one with a program attached and an observed one.
func TestSystemResetRejects(t *testing.T) {
	p := FastParams()
	build := func(opt Options) *System {
		opt.Params = &p
		s, err := NewSystem(opt)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	attached := build(Options{ConfigName: "SDD"})
	prog := &Program{}
	prog.CPU = append(prog.CPU, GoThread(func(t *Thread) { t.Compute(10) }))
	defer prog.Close()
	if err := attached.Attach(prog); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*System{
		"a hierarchical LLC": build(Options{ConfigName: "HMG"}),
		"a program attached": attached,
		"an observer":        build(Options{ConfigName: "SDD", Observe: true}),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Reset of a machine with %s did not panic", name)
				}
			}()
			s.Reset()
		}()
	}
}
