// Command spandex-mcheck exhaustively model-checks tiny Spandex
// configurations: for every (CPU protocol, GPU protocol) pairing it
// enumerates all message-delivery/operation-issue interleavings of a set
// of litmus-style scenarios, auditing every explored state with the
// coherence checker's SWMR/disjointness invariants plus deadlock,
// data-value (out-of-thin-air) and terminal-quiescence checks. A found
// violation prints with the concrete interleaving trace that reaches it.
//
// Usage:
//
//	spandex-mcheck                       # every pairing x every scenario
//	spandex-mcheck -pairing mesi+denovo  # one pairing
//	spandex-mcheck -scenario share       # one scenario (where defined)
//	spandex-mcheck -max-states 50000     # per-scenario state budget
//	spandex-mcheck -coverage-out f.json  # dump observed (state,msg) pairs
//	spandex-mcheck -json stats.json      # dump per-run state/reduction stats
//	spandex-mcheck -baseline docs/mcheck/baseline.json
//	                                     # fail on any count change or runtime growth
//
// The -baseline gate is the CI guard against silent changes to what the
// checker explores. A run's five counts (states, transitions, max depth,
// ample commits, sleep skips) are deterministic, so each must equal the
// baseline exactly: growth and shrinkage both fail the run until
// docs/mcheck/baseline.json is regenerated (make mcheck-baseline) and the
// change reviewed. The suite's wall time may not grow by more than
// timeTolerance (50%, loose because runtimes vary across hosts).
// Scenarios added or removed relative to the baseline also fail it — the
// baseline must follow the suite.
//
// Exit status is nonzero if the flags select no run, any scenario reports
// a violation or fails to complete within its state budget, or the
// baseline gate trips.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"spandex/internal/core"
	"spandex/internal/mcheck"
)

// timeTolerance is the fractional growth of the suite's total wall time
// over the baseline's that the gate allows.
const timeTolerance = 0.50

func main() {
	pairing := flag.String("pairing", "", "only one pairing, e.g. mesi+gpu (default: all)")
	scenario := flag.String("scenario", "", "only one scenario name (default: all defined for the pairing)")
	maxStates := flag.Int("max-states", 0, "per-scenario distinct-state budget (0 = default)")
	covOut := flag.String("coverage-out", "", "write observed (LLC state, message) pairs as JSON, for the spandex-graph -diff cross-check")
	jsonOut := flag.String("json", "", "write per-run exploration stats as JSON")
	baseline := flag.String("baseline", "", "compare stats against this baseline JSON and fail on any count change or runtime growth")
	flag.Parse()

	die := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "spandex-mcheck: "+format+"\n", args...)
		os.Exit(1)
	}

	runs, err := selectRuns(*pairing, *scenario)
	if err != nil {
		die("%v", err)
	}

	var cov *core.TransitionCoverage
	if *covOut != "" {
		cov = core.NewTransitionCoverage()
	}

	failed := false
	totalStates := 0
	var stats suiteStats
	start := time.Now()
	for _, r := range runs {
		p, scn := r.pairing, r.scn
		t0 := time.Now()
		res := mcheck.Explore(mcheck.Config{Scenario: scn, MaxStates: *maxStates, Coverage: cov})
		totalStates += res.States
		stats.Runs = append(stats.Runs, runStat{
			Pairing:      p.String(),
			Scenario:     scn.Name,
			States:       res.States,
			Transitions:  res.Transitions,
			MaxDepth:     res.MaxDepth,
			AmpleCommits: res.AmpleCommits,
			SleepSkips:   res.SleepSkips,
			Seconds:      time.Since(t0).Seconds(),
		})
		status := "ok"
		if res.Violation != nil {
			status = "VIOLATION"
			failed = true
		} else if !res.Complete {
			status = "BUDGET EXCEEDED"
			failed = true
		}
		fmt.Printf("%-13s %-12s %7d states %8d transitions  depth %3d  %s\n",
			p, scn.Name, res.States, res.Transitions, res.MaxDepth, status)
		if res.Violation != nil {
			fmt.Printf("  %s violation: %s\n  interleaving:\n", res.Violation.Kind, res.Violation.Detail)
			for _, line := range res.Violation.Trace {
				fmt.Printf("    %s\n", line)
			}
		}
	}
	stats.TotalStates = totalStates
	stats.TotalSeconds = time.Since(start).Seconds()
	fmt.Printf("total: %d states in %s\n", totalStates, time.Since(start).Round(time.Millisecond))

	if *jsonOut != "" {
		data, err := json.MarshalIndent(&stats, "", "  ")
		if err != nil {
			die("marshal stats: %v", err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			die("write stats: %v", err)
		}
	}
	if *baseline != "" {
		if err := gate(&stats, *baseline, timeTolerance); err != nil {
			fmt.Fprintf(os.Stderr, "spandex-mcheck: baseline gate: %v\n", err)
			failed = true
		}
	}

	if cov != nil {
		if err := cov.WriteFile(*covOut); err != nil {
			die("write coverage: %v", err)
		}
		fmt.Printf("coverage: %d distinct (state, msg) pairs -> %s\n", len(cov.Snapshot()), *covOut)
	}

	if failed {
		os.Exit(1)
	}
}

// run is one (pairing, scenario) exploration.
type run struct {
	pairing mcheck.Pairing
	scn     mcheck.Scenario
}

// selectRuns resolves the -pairing and -scenario flags ("" = all) into
// the runs to explore. A scenario may exist only for some pairings (e.g.
// "share" needs a MESI CPU), so pairings that lack it are left out; but a
// selection that explores no run at all is an error naming what the
// selected pairings define, so a misspelt name cannot pass as a clean
// run of nothing.
func selectRuns(pairing, scenario string) ([]run, error) {
	pairings := mcheck.Pairings()
	if pairing != "" {
		i := slices.IndexFunc(pairings, func(p mcheck.Pairing) bool { return p.String() == pairing })
		if i < 0 {
			var names []string
			for _, p := range pairings {
				names = append(names, p.String())
			}
			return nil, fmt.Errorf("unknown pairing %q (have %s)", pairing, strings.Join(names, ", "))
		}
		pairings = pairings[i : i+1]
	}
	var runs []run
	var known []string
	for _, p := range pairings {
		for _, scn := range mcheck.Scenarios(p) {
			if !slices.Contains(known, scn.Name) {
				known = append(known, scn.Name)
			}
			if scenario == "" || scn.Name == scenario {
				runs = append(runs, run{pairing: p, scn: scn})
			}
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no selected pairing defines scenario %q (they define %s)", scenario, strings.Join(known, ", "))
	}
	return runs, nil
}

// runStat is one (pairing, scenario) exploration's stats. The state,
// transition, depth and reduction counters are deterministic; Seconds is
// informational per run and gated only in aggregate.
type runStat struct {
	Pairing      string  `json:"pairing"`
	Scenario     string  `json:"scenario"`
	States       int     `json:"states"`
	Transitions  int     `json:"transitions"`
	MaxDepth     int     `json:"max_depth"`
	AmpleCommits int     `json:"ample_commits"`
	SleepSkips   int     `json:"sleep_skips"`
	Seconds      float64 `json:"seconds"`
}

type suiteStats struct {
	Runs         []runStat `json:"runs"`
	TotalStates  int       `json:"total_states"`
	TotalSeconds float64   `json:"total_seconds"`
}

// gate compares the current suite stats against the checked-in baseline:
// every baseline run must still exist with all five counts equal, no run
// may appear that the baseline lacks, and total wall time may not grow
// past timeTol. Any trip reports every offender, not just the first, so
// one regeneration review covers the whole diff.
func gate(cur *suiteStats, path string, timeTol float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base suiteStats
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse %s: %v", path, err)
	}
	baseRuns := make(map[string]runStat, len(base.Runs))
	for _, r := range base.Runs {
		baseRuns[r.Pairing+"/"+r.Scenario] = r
	}
	var trips []string
	for _, r := range cur.Runs {
		key := r.Pairing + "/" + r.Scenario
		b, ok := baseRuns[key]
		if !ok {
			trips = append(trips, fmt.Sprintf("%s: not in baseline (new scenario? run make mcheck-baseline)", key))
			continue
		}
		delete(baseRuns, key)
		if diff := countDiff(r, b); diff != "" {
			trips = append(trips, fmt.Sprintf("%s: %s (run make mcheck-baseline to accept a reviewed change)", key, diff))
		}
	}
	leftover := make([]string, 0, len(baseRuns))
	for key := range baseRuns {
		leftover = append(leftover, key)
	}
	sort.Strings(leftover)
	for _, key := range leftover {
		trips = append(trips, fmt.Sprintf("%s: in baseline but not explored (scenario removed? run make mcheck-baseline)", key))
	}
	if limit := base.TotalSeconds * (1 + timeTol); cur.TotalSeconds > limit {
		trips = append(trips, fmt.Sprintf("suite took %.1fs vs baseline %.1fs (>%d%% growth)",
			cur.TotalSeconds, base.TotalSeconds, int(timeTol*100)))
	}
	if len(trips) > 0 {
		return fmt.Errorf("%d trip(s):\n  %s", len(trips), strings.Join(trips, "\n  "))
	}
	fmt.Printf("baseline gate: %d runs match %s exactly (%.1fs vs %.1fs)\n",
		len(cur.Runs), path, cur.TotalSeconds, base.TotalSeconds)
	return nil
}

// countDiff lists every count in which run r differs from its baseline b,
// or returns "" when all five are equal.
func countDiff(r, b runStat) string {
	var diffs []string
	for _, c := range []struct {
		name      string
		cur, base int
	}{
		{"states", r.States, b.States},
		{"transitions", r.Transitions, b.Transitions},
		{"max_depth", r.MaxDepth, b.MaxDepth},
		{"ample_commits", r.AmpleCommits, b.AmpleCommits},
		{"sleep_skips", r.SleepSkips, b.SleepSkips},
	} {
		if c.cur != c.base {
			diffs = append(diffs, fmt.Sprintf("%s %d vs baseline %d", c.name, c.cur, c.base))
		}
	}
	return strings.Join(diffs, ", ")
}
