package mcheck

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"spandex/internal/config"
	"spandex/internal/memaddr"
	"spandex/internal/proto"
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

// TestRecycledWorldMatchesFresh checks the premise of replay by reset: a
// world reset with its System is exactly the world newWorld builds. For
// every pairing and scenario (Heavy ones only without -short), the
// explorer's world walks three random paths, each cut at a random depth
// and each begun by a replay of the empty prefix, which resets the world
// the previous walk left behind. After every action, the recycled world
// is compared with a fresh one that applied the same prefix: canonical
// bytes, engine time and fired events, pending messages, the checker's
// violations, the script cursors and every stats counter. The test fails
// unless some reset finds messages in flight, so a reset in mid-protocol
// is exercised.
func TestRecycledWorldMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dirty := 0
	for _, p := range Pairings() {
		for _, scn := range Scenarios(p) {
			if testing.Short() && scn.Heavy {
				continue
			}
			x := newExplorer(Config{Scenario: scn}, FullReduction())
			for walk := 0; walk < 3; walk++ {
				if len(x.w.pending) > 0 {
					dirty++
				}
				w, fresh := x.replay(nil), newWorld(x.sc, nil)
				cut := rng.Intn(40)
				var path []int
				for {
					if err := sameWorld(w, fresh); err != nil {
						t.Fatalf("%s/%s walk %d, after %v: the recycled world differs from a fresh one: %v",
							p, scn.Name, walk, path, err)
					}
					acts := fresh.enumActions()
					if _, _, bad := fresh.violation(); bad || len(acts) == 0 || len(path) == cut {
						break
					}
					a := acts[rng.Intn(len(acts))].flat
					w.apply(a)
					fresh.apply(a)
					path = append(path, a)
				}
			}
		}
	}
	if dirty == 0 {
		t.Fatal("no reset found a message in flight; reset in mid-protocol went untested")
	}
	t.Logf("%d resets found messages in flight", dirty)
}

// sameWorld compares a recycled world with a fresh one that applied the
// same actions.
func sameWorld(w, fresh *world) error {
	got, want := refCanonicalBytes(w), refCanonicalBytes(fresh)
	for pos := range want {
		if !bytes.Equal(got[pos].b, want[pos].b) {
			return fmt.Errorf("root section %d:\n  recycled %s\n  fresh    %s", pos, got[pos].b, want[pos].b)
		}
	}
	if w.eng.Now() != fresh.eng.Now() || w.eng.Fired() != fresh.eng.Fired() {
		return fmt.Errorf("engine at %d after %d events, fresh at %d after %d",
			w.eng.Now(), w.eng.Fired(), fresh.eng.Now(), fresh.eng.Fired())
	}
	if !slices.EqualFunc(w.pending, fresh.pending, func(a, b *proto.Message) bool { return *a == *b }) {
		return fmt.Errorf("pending %v, fresh %v", w.pending, fresh.pending)
	}
	if !slices.Equal(w.chk.Violations, fresh.chk.Violations) || w.chk.Dropped != fresh.chk.Dropped {
		return fmt.Errorf("violations %v, fresh %v", w.chk.Violations, fresh.chk.Violations)
	}
	for i, d := range w.devs {
		if f := fresh.devs[i]; d.next != f.next || d.inflight != f.inflight {
			return fmt.Errorf("%s at op %d (in flight %v), fresh at op %d (in flight %v)", d.name, d.next, d.inflight, f.next, f.inflight)
		}
	}
	if w.dataViol != fresh.dataViol || w.stuck != fresh.stuck {
		return fmt.Errorf("violations %q %q, fresh %q %q", w.dataViol, w.stuck, fresh.dataViol, fresh.stuck)
	}
	st, freshSt := w.sys.Stats.Snapshot(), fresh.sys.Stats.Snapshot()
	if diff := st.FirstDiff(freshSt); diff != "" || !maps.Equal(st.Counters, freshSt.Counters) {
		return fmt.Errorf("stats: %s (counters %v, fresh %v)", diff, st.Counters, freshSt.Counters)
	}
	return nil
}
