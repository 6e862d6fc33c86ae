package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spandex/internal/mcheck"
)

// TestGateExactCounts checks the baseline gate: identical counts pass,
// and a change to any one of the five counts trips it whether it grows or
// shrinks, as do a new or missing run and >50% suite-time growth.
func TestGateExactCounts(t *testing.T) {
	run := runStat{Pairing: "mesi+gpu", Scenario: "mp", States: 38, Transitions: 42,
		MaxDepth: 13, AmpleCommits: 15, SleepSkips: 2, Seconds: 0.01}
	base := suiteStats{Runs: []runStat{run}, TotalStates: 38, TotalSeconds: 10}
	data, err := json.Marshal(&base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		edit func(s *suiteStats)
		trip string // "" = passes
	}{
		{"identical", func(s *suiteStats) {}, ""},
		{"per-run seconds ignored", func(s *suiteStats) { s.Runs[0].Seconds = 9 }, ""},
		{"time within tolerance", func(s *suiteStats) { s.TotalSeconds = 14.9 }, ""},
		{"states grow", func(s *suiteStats) { s.Runs[0].States++ }, "states 39 vs baseline 38"},
		{"states shrink", func(s *suiteStats) { s.Runs[0].States-- }, "states 37 vs baseline 38"},
		{"transitions", func(s *suiteStats) { s.Runs[0].Transitions++ }, "transitions 43 vs baseline 42"},
		{"max_depth", func(s *suiteStats) { s.Runs[0].MaxDepth-- }, "max_depth 12 vs baseline 13"},
		{"ample_commits", func(s *suiteStats) { s.Runs[0].AmpleCommits++ }, "ample_commits 16 vs baseline 15"},
		{"sleep_skips", func(s *suiteStats) { s.Runs[0].SleepSkips = 0 }, "sleep_skips 0 vs baseline 2"},
		{"new run", func(s *suiteStats) {
			s.Runs = append(s.Runs, runStat{Pairing: "mesi+gpu", Scenario: "race"})
		}, "mesi+gpu/race: not in baseline"},
		{"missing run", func(s *suiteStats) { s.Runs = nil }, "mesi+gpu/mp: in baseline but not explored"},
		{"time growth", func(s *suiteStats) { s.TotalSeconds = 15.1 }, "suite took 15.1s vs baseline 10.0s"},
	} {
		cur := base
		cur.Runs = append([]runStat(nil), base.Runs...)
		tc.edit(&cur)
		err := gate(&cur, path, timeTolerance)
		switch {
		case tc.trip == "" && err != nil:
			t.Errorf("%s: gate tripped: %v", tc.name, err)
		case tc.trip != "" && err == nil:
			t.Errorf("%s: gate passed, want a trip on %q", tc.name, tc.trip)
		case tc.trip != "" && !strings.Contains(err.Error(), tc.trip):
			t.Errorf("%s: trip %q lacks %q", tc.name, err, tc.trip)
		}
	}
}

// TestSelectRuns checks the -pairing/-scenario selection: no flags select
// every run, a scenario only some pairings define selects those, and a
// selection that would explore nothing is an error naming the scenarios
// the selected pairings define, instead of a clean run of zero states.
func TestSelectRuns(t *testing.T) {
	all, err := selectRuns("", "")
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, p := range mcheck.Pairings() {
		want += len(mcheck.Scenarios(p))
	}
	if len(all) != want {
		t.Errorf("no flags selected %d runs, want every pairing's every scenario, %d", len(all), want)
	}
	share, err := selectRuns("", "share")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range share {
		got = append(got, r.pairing.String()+"/"+r.scn.Name)
	}
	if strings.Join(got, " ") != "mesi+gpu/share mesi+denovo/share" {
		t.Errorf("-scenario share selected %v, want the two MESI-CPU pairings", got)
	}

	for _, tc := range []struct {
		pairing, scenario string
		want              []string // substrings of the error
	}{
		{"", "shar", []string{`scenario "shar"`, "share", "fan6"}},
		{"denovo+gpu", "share", []string{`scenario "share"`, "mp", "samword4"}},
		{"mesi+cpu", "", []string{`unknown pairing "mesi+cpu"`, "mesi+gpu"}},
	} {
		_, err := selectRuns(tc.pairing, tc.scenario)
		if err == nil {
			t.Errorf("-pairing %q -scenario %q: selected runs, want an error", tc.pairing, tc.scenario)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("-pairing %q -scenario %q: error %q lacks %q", tc.pairing, tc.scenario, err, w)
			}
		}
	}
}
