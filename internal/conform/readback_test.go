package conform

import (
	"fmt"
	"path/filepath"
	"testing"

	"spandex"
)

// TestReadBackMatchesPerWordFlash checks that System.Reader's single flash
// of core 0's L1 reads the same final state as flashing before every word.
// It runs the checked-in corpus, each case on the machine it records,
// fuzz seeds 0-59 on all three fuzzing geometries and the nine Figure 2/3
// workloads on FastParams, each on all six configurations. After a run, Validate reads back through one
// s.Reader() while the test records every (address, value); then each
// recorded address is read again through a fresh Reader per word, which
// flashes core 0's L1 before that word alone.
func TestReadBackMatchesPerWordFlash(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "conform", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no JSON cases under testdata/conform")
	}
	var cases []*Case
	for _, path := range paths {
		c, err := LoadCaseFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, c)
	}
	t.Run("corpus", func(t *testing.T) {
		t.Parallel()
		for _, c := range cases {
			checkCaseReadBack(t, c, MachineOpts(c.Pressure, c.Banks))
		}
	})
	for _, g := range []struct {
		name   string
		params *spandex.SystemParams
	}{
		{"fuzz", nil},
		{"fuzz-pressure", PressureParams()},
		{"fuzz-banked-pressure", BankedPressureParams()},
	} {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(0); seed < 60; seed++ {
				checkCaseReadBack(t, Generate(seed, GenParams{}), RunOpts{Params: g.params})
			}
		})
	}
	t.Run("figures", func(t *testing.T) {
		t.Parallel()
		fast := spandex.FastParams()
		for _, wn := range append(spandex.Figure2Workloads(), spandex.Figure3Workloads()...) {
			w, err := spandex.WorkloadByName(wn)
			if err != nil {
				t.Fatal(err)
			}
			for _, cn := range spandex.ConfigNames() {
				checkReadBack(t, wn, w, spandex.Options{ConfigName: cn, Params: &fast})
			}
		}
	})
}

func checkCaseReadBack(t *testing.T, c *Case, ro RunOpts) {
	t.Helper()
	l := c.layout()
	e := c.Expect(l)
	for _, cn := range spandex.ConfigNames() {
		out := newOutcome(c, cn)
		checkReadBack(t, c.Name, &caseWorkload{c: c, l: l, e: e, out: out}, c.options(cn, ro))
		if out.ImageErr != nil {
			t.Errorf("%s on %s: %v", c.Name, cn, out.ImageErr)
		}
	}
}

// checkReadBack runs w as spandex.Run does, then compares the values its
// Validate read through one Reader with a per-word-flash re-read. Only the
// values read matter here, not Validate's verdict: the oracle tests judge
// that, and tqh, whose GPU warps each drain one of its 16 queues, fails
// its own oracle on FastParams's four warps after reading one word.
func checkReadBack(t *testing.T, name string, w spandex.Workload, opt spandex.Options) {
	t.Helper()
	where := fmt.Sprintf("%s on %s", name, opt.ConfigName)
	s, err := spandex.NewSystem(opt)
	if err != nil {
		t.Fatal(err)
	}
	prog := w.Build(s.Machine(), opt.Seed)
	defer prog.Close()
	if err := s.Attach(prog); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if _, err := s.Run(opt.MaxTime); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if prog.Validate == nil {
		t.Fatalf("%s: workload has no Validate", where)
	}
	var addrs []spandex.Addr
	var vals []uint32
	read := s.Reader()
	_ = prog.Validate(func(a spandex.Addr) uint32 {
		v := read(a)
		addrs, vals = append(addrs, a), append(vals, v)
		return v
	})
	if len(addrs) == 0 {
		t.Errorf("%s: Validate read nothing back", where)
	}
	perWord := func(a spandex.Addr) uint32 { return s.Reader()(a) }
	for i, a := range addrs {
		if got := perWord(a); got != vals[i] {
			t.Errorf("%s: read %d of %d at %#x: one flash read %#x, flash per word reads %#x",
				where, i, len(addrs), uint64(a), vals[i], got)
			return
		}
	}
}
