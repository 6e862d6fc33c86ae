package mcheck

import (
	"testing"
)

// originalScenarios is the pre-reduction scenario corpus: every pairing's
// mp/race/samword/evict/share/atomic shapes, all small enough to explore
// exhaustively with NO reduction inside the default state budget. That
// makes them the mode-against-mode soundness corpus — the unreduced
// exploration is ground truth, and each reduction layer is checked
// against it. The 4–6-device scenarios exist precisely because they are
// not feasible unreduced; TestReductionLargeScenarios compares them
// reduced-mode-against-reduced-mode instead.
var originalScenarios = map[string]bool{
	"mp":            true,
	"race":          true,
	"samword":       true,
	"evict-owned":   true,
	"share":         true,
	"evict-shared":  true,
	"shared-atomic": true,
	"mixed-owner":   true,
}

// exploreSet mirrors Explore but exposes the visited canonical-state set,
// so modes sharing a fingerprint function can be compared state-for-state
// rather than only by count.
func exploreSet(scn Scenario, red Reduction) (Result, map[uint64]bool) {
	x := newExplorer(Config{Scenario: scn, MaxStates: DefaultMaxStates}, red)
	x.run()
	set := make(map[uint64]bool, len(x.visited))
	for k := range x.visited {
		set[k] = true
	}
	return x.res, set
}

// TestReductionSoundness checks every reduction layer against the
// unreduced ground truth on the original corpus:
//
//   - Verdict equality: all five modes (none, sleep-only, canon,
//     canon+sleep, full) agree on clean/violating and complete.
//   - Containment: the states a sleep-set run visits are a subset of the
//     states the corresponding run without sleep sets visits (compared
//     under the same fingerprint function). Sleep sets prune transitions;
//     a run that visits a fingerprint the exhaustive run never reaches
//     would mean replay nondeterminism or fingerprint corruption. Exact
//     set equality does NOT hold: the flat (non-canonical) fingerprint
//     hashes pending messages in send order, so commuted interleavings of
//     the same physical state count as distinct fingerprints, and sleep
//     sets prune exactly those duplicates.
//   - Monotonic shrinkage: canon <= none, full <= canon+sleep.
//   - Aggregate effectiveness: full reduction collapses the corpus's
//     total state count by at least 3x — the scaling headroom the
//     4–6-device scenarios spend.
//
// -short (the -race lane) restricts to the first pairing.
func TestReductionSoundness(t *testing.T) {
	pairings := Pairings()
	if testing.Short() {
		pairings = pairings[:1]
	}
	sleepOnly := Reduction{Sleep: true}
	canonOnly := Reduction{Canon: true}
	canonSleep := Reduction{Canon: true, Sleep: true}
	full := FullReduction()

	var noneTotal, fullTotal int
	for _, p := range pairings {
		for _, scn := range Scenarios(p) {
			if !originalScenarios[scn.Name] {
				continue
			}
			none, noneSet := exploreSet(scn, NoReduction())
			sleep, sleepSet := exploreSet(scn, sleepOnly)
			canon, canonSet := exploreSet(scn, canonOnly)
			cs, csSet := exploreSet(scn, canonSleep)
			fl, _ := exploreSet(scn, full)
			noneTotal += none.States
			fullTotal += fl.States

			for _, r := range []Result{none, sleep, canon, cs, fl} {
				if r.Violation != nil {
					t.Errorf("%s/%s: violation under %+v: %v", p, scn.Name, r, r.Violation)
				}
				if !r.Complete {
					t.Errorf("%s/%s: incomplete exploration (%d states)", p, scn.Name, r.States)
				}
			}

			if !subset(sleepSet, noneSet) {
				t.Errorf("%s/%s: sleep-only run visited states the exhaustive run never reached",
					p, scn.Name)
			}
			if !subset(csSet, canonSet) {
				t.Errorf("%s/%s: canon+sleep run visited states the canon-only run never reached",
					p, scn.Name)
			}
			if canon.States > none.States {
				t.Errorf("%s/%s: canonicalization grew the state count (%d > %d)",
					p, scn.Name, canon.States, none.States)
			}
			if fl.States > cs.States {
				t.Errorf("%s/%s: ample sets grew the state count (%d > %d)",
					p, scn.Name, fl.States, cs.States)
			}
			if sleep.SleepSkips == 0 && none.States > 100 {
				t.Errorf("%s/%s: sleep sets pruned nothing on a %d-state space", p, scn.Name, none.States)
			}
			t.Logf("%s/%s: none=%d sleep=%d canon=%d canon+sleep=%d full=%d (ample=%d sleep-skips=%d)",
				p, scn.Name, none.States, sleep.States, canon.States, cs.States, fl.States,
				fl.AmpleCommits, fl.SleepSkips)
		}
	}
	ratio := float64(noneTotal) / float64(fullTotal)
	t.Logf("aggregate: %d unreduced states vs %d fully reduced (%.2fx)", noneTotal, fullTotal, ratio)
	if ratio < 3.0 {
		t.Errorf("full reduction achieves only %.2fx on the original corpus, want >= 3x", ratio)
	}
}

// TestReductionLargeScenarios cross-checks the reduced modes against each
// other on multi-device scenarios where unreduced exploration is
// unaffordable: canon+sleep (no ample commitment) must reach the same
// verdict as the full reduction, and ample sets must not grow the
// canonical state count. Scenarios whose canon+sleep exploration exceeds
// the budget are skipped — that infeasibility is exactly why the full
// reduction exists. fan6's canon+sleep exploration is most of this
// test's runtime, -short (the -race lane) included.
func TestReductionLargeScenarios(t *testing.T) {
	p := Pairing{CPU: ProtoMESI, GPU: ProtoGPU}
	for _, name := range []string{"samword4", "fan6", "wb-race"} {
		scn, err := ScenarioByName(p, name)
		if err != nil {
			t.Fatal(err)
		}
		cs, _ := exploreSet(scn, Reduction{Canon: true, Sleep: true})
		fl, _ := exploreSet(scn, FullReduction())
		if !cs.Complete && cs.Violation == nil {
			t.Logf("%s/%s: canon+sleep exceeds the state budget (full reduction: %d states); skipping", p, name, fl.States)
			continue
		}
		if (cs.Violation != nil) != (fl.Violation != nil) {
			t.Errorf("%s/%s: verdict mismatch: canon+sleep=%v full=%v", p, name, cs.Violation, fl.Violation)
		}
		if fl.Violation != nil {
			t.Errorf("%s/%s: unexpected violation: %v", p, name, fl.Violation)
		}
		if fl.States > cs.States {
			t.Errorf("%s/%s: ample sets grew the state count (%d > %d)", p, name, fl.States, cs.States)
		}
		t.Logf("%s/%s: canon+sleep=%d full=%d (%.2fx)", p, name, cs.States, fl.States,
			float64(cs.States)/float64(fl.States))
	}
}

// subset reports whether every fingerprint in a was also visited in b.
func subset(a, b map[uint64]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
