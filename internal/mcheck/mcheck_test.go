package mcheck

import (
	"strings"
	"testing"

	"spandex/internal/core"
	"spandex/internal/device"
)

// TestExploreCleanPairings exhaustively explores every scenario of every
// (CPU, GPU) protocol pairing and asserts the unmutated protocols are
// violation-free with the full state space covered.
func TestExploreCleanPairings(t *testing.T) {
	for _, p := range Pairings() {
		for _, scn := range Scenarios(p) {
			if testing.Short() && scn.Heavy {
				continue
			}
			res := Explore(Config{Scenario: scn})
			t.Logf("%s/%s: %d states, %d transitions, depth %d",
				p, scn.Name, res.States, res.Transitions, res.MaxDepth)
			if res.Violation != nil {
				t.Errorf("%s/%s: unexpected violation: %v\ntrace:\n  %s",
					p, scn.Name, res.Violation, traceLines(res.Violation))
			}
			if !res.Complete {
				t.Errorf("%s/%s: exploration incomplete (budget hit at %d states)",
					p, scn.Name, res.States)
			}
			if res.States < 10 {
				t.Errorf("%s/%s: implausibly small state space (%d states)", p, scn.Name, res.States)
			}
		}
	}
}

func traceLines(v *Violation) string {
	s := ""
	for _, line := range v.Trace {
		s += line + "\n  "
	}
	return s
}

// TestExploreDeterministic asserts two explorations of the same scenario
// agree exactly — the property replay-based backtracking depends on.
func TestExploreDeterministic(t *testing.T) {
	scn, err := ScenarioByName(Pairing{CPU: ProtoMESI, GPU: ProtoDeNovo}, "race")
	if err != nil {
		t.Fatal(err)
	}
	a := Explore(Config{Scenario: scn})
	b := Explore(Config{Scenario: scn})
	if a.States != b.States || a.Transitions != b.Transitions || a.MaxDepth != b.MaxDepth {
		t.Fatalf("non-deterministic exploration: %+v vs %+v", a, b)
	}
}

// TestExploreBudget asserts the state cap is honored and reported.
func TestExploreBudget(t *testing.T) {
	scn, _ := ScenarioByName(Pairing{CPU: ProtoMESI, GPU: ProtoGPU}, "mp")
	res := Explore(Config{Scenario: scn, MaxStates: 25})
	if res.Complete {
		t.Fatal("exploration with a 25-state budget reported complete")
	}
	if res.States > 25 {
		t.Fatalf("explored %d states past the 25-state budget", res.States)
	}
}

// TestExploreRecordsCoverage asserts exploration feeds the transition
// coverage recorder with the cold-miss pair every scenario must hit.
func TestExploreRecordsCoverage(t *testing.T) {
	cov := core.NewTransitionCoverage()
	scn, _ := ScenarioByName(Pairing{CPU: ProtoDeNovo, GPU: ProtoGPU}, "mp")
	res := Explore(Config{Scenario: scn, Coverage: cov})
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %v", res.Violation)
	}
	snap := cov.Snapshot()
	if len(snap) == 0 {
		t.Fatal("exploration recorded no transition coverage")
	}
	found := false
	for k := range snap {
		if k == "I|ReqV" || k == "I|ReqS" || k == "I|ReqWT" || k == "I|ReqO" || k == "I|ReqOData" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no cold-miss (I, request) pair recorded; got %v", snap)
	}
}

// rejectLast is an L1 that rejects its device's last scripted operation
// every time, changing nothing: an L1 that can never accept it.
type rejectLast struct {
	device.L1Cache
	d *mdev
}

func (r rejectLast) Access(op device.Op, done func(uint32)) bool {
	if r.d.next == len(r.d.ops)-1 {
		return false
	}
	return r.L1Cache.Access(op, done)
}

// TestPermanentRejectionIsDeadlock wraps device 0's L1 in race, whose
// last operation is a load, in one that rejects that load for ever. The
// rejection changes nothing, so the issue leads back to the state it left
// and stays enabled: neither a new state nor a missing action shows the
// deadlock. On every pairing, with and without sleep sets (which put the
// issue to sleep in the states its siblings reach), exploration must
// report a deadlock whose trace ends with the rejected load.
func TestPermanentRejectionIsDeadlock(t *testing.T) {
	for _, p := range Pairings() {
		scn, err := ScenarioByName(p, "race")
		if err != nil {
			t.Fatal(err)
		}
		for _, red := range []Reduction{FullReduction(), {Canon: true}} {
			x := newExplorer(Config{Scenario: scn, MaxStates: DefaultMaxStates}, red)
			d := x.w.devs[0]
			d.l1 = rejectLast{L1Cache: d.l1, d: d}
			x.run()
			v := x.res.Violation
			if v == nil || v.Kind != "deadlock" {
				t.Errorf("%s/race %+v: a load rejected for ever gave %v after %d states, want a deadlock",
					p, red, v, x.res.States)
				continue
			}
			if last := v.Trace[len(v.Trace)-1]; !strings.Contains(last, "op 2 (load w1) rejected by L1") {
				t.Errorf("%s/race %+v: the trace ends with %q, not the rejected load:\n  %s",
					p, red, last, strings.Join(v.Trace, "\n  "))
			}
			t.Logf("%s/race %+v: caught after %d states: %v", p, red, x.res.States, v)
		}
	}
}
