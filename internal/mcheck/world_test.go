package mcheck

import (
	"fmt"
	"testing"

	"spandex/internal/config"
	"spandex/internal/memaddr"
)

// TestMachineOfPairings checks the machine each pairing's scenarios are
// explored on: the pairing's Table V configuration, one count-1 device
// per script in the class its protocol takes, and the scenario's
// geometry. It also checks that each world binds script i to the L1 the
// System built for NodeID i, with a holds query exactly where the
// protocol can hold externals.
func TestMachineOfPairings(t *testing.T) {
	want := map[Pairing]string{
		{CPU: ProtoMESI, GPU: ProtoGPU}:      "SMG",
		{CPU: ProtoMESI, GPU: ProtoDeNovo}:   "SMD",
		{CPU: ProtoDeNovo, GPU: ProtoGPU}:    "SDG",
		{CPU: ProtoDeNovo, GPU: ProtoDeNovo}: "SDD",
	}
	l1Types := map[Proto]string{ProtoMESI: "*mesi.L1", ProtoDeNovo: "*denovo.L1", ProtoGPU: "*gpucoh.L1"}
	for _, p := range Pairings() {
		cfg, err := config.ByName(want[p])
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		for _, scn := range Scenarios(p) {
			sc := newScene(scn, FullReduction())
			opt, params := sc.opt, sc.opt.Params
			if opt.Config != cfg || !opt.CheckEveryTransition {
				t.Errorf("%s/%s: options %+v, want %s checked on every transition", p, scn.Name, opt, cfg.Name)
			}
			if len(params.Devices) != len(scn.Devices) {
				t.Fatalf("%s/%s: %d device specs for %d scripts", p, scn.Name, len(params.Devices), len(scn.Devices))
			}
			w := newWorld(sc, nil)
			for i, d := range scn.Devices {
				class := config.ClassGPU
				if d.Proto == ProtoMESI || d.Proto == ProtoDeNovo && p.CPU == ProtoDeNovo {
					class = config.ClassCPU
				}
				if spec := params.Devices[i]; spec != (config.DeviceSpec{Class: class, Count: 1}) {
					t.Errorf("%s/%s: script %d (%s) has spec %+v, want one %s device", p, scn.Name, i, d.Proto, spec, class)
				}
				if got := fmt.Sprintf("%T", w.devs[i].l1); got != l1Types[d.Proto] {
					t.Errorf("%s/%s: script %d (%s) drives a %s", p, scn.Name, i, d.Proto, got)
				}
				if (w.devs[i].holds != nil) != (d.Proto != ProtoGPU) {
					t.Errorf("%s/%s: script %d (%s) has holds query %v", p, scn.Name, i, d.Proto, w.devs[i].holds != nil)
				}
			}
			if params.MSHREntries != 8 || params.StoreBufferEntries != 8 {
				t.Errorf("%s/%s: %d MSHR and %d store-buffer entries, want 8 and 8",
					p, scn.Name, params.MSHREntries, params.StoreBufferEntries)
			}
			llcLines := params.SpandexLLCBytes / params.Banks() / memaddr.LineBytes
			l1Lines := params.L1SizeBytes / memaddr.LineBytes
			switch scn.Name {
			case "evict-owned":
				if llcLines != 1 || params.SpandexLLCWays != 1 {
					t.Errorf("%s/%s: LLC of %d lines, %d ways; want one line", p, scn.Name, llcLines, params.SpandexLLCWays)
				}
			case "wb-race":
				if l1Lines != 1 || params.L1Ways != 1 {
					t.Errorf("%s/%s: L1s of %d lines, %d ways; want one line", p, scn.Name, l1Lines, params.L1Ways)
				}
			case "bank-migrate":
				if params.Banks() != 2 || len(w.llcs) != 2 {
					t.Errorf("%s/%s: %d banks in the parameters, %d built; want 2", p, scn.Name, params.Banks(), len(w.llcs))
				}
			}
		}
	}
}
