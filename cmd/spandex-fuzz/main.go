// Command spandex-fuzz is the differential conformance fuzzer: it
// generates seeded random data-race-free programs (internal/conform),
// runs each on every cache configuration, and requires observationally
// identical behaviour — identical per-thread load logs, identical final
// memory, no deadlocks, no coherence-invariant violations. Any divergence
// is minimized by the delta-debugging shrinker and emitted as a JSON case
// that records the machine it failed on, so -replay alone re-runs it.
//
// Usage:
//
//	spandex-fuzz                          # fuzz the default seed range
//	spandex-fuzz -seeds 100:600           # explicit half-open seed range
//	spandex-fuzz -banks 2 -pressure       # bank-sharded LLC, tiny per-bank capacity
//	spandex-fuzz -replay case.json        # replay a saved case on its recorded machine
//	spandex-fuzz -coverage-out cov.json   # record observed LLC transitions
//	spandex-fuzz -mutate dropinvack       # (with -tags spandexmut) expect a
//	                                      # seeded bug; exit 0 iff caught
//
// With -mutate the exit convention inverts: the run succeeds only if the
// armed protocol mutation is detected within the seed budget (and, with
// shrinking on, minimized and re-confirmed) — the fuzzer proving its teeth.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"spandex"
	"spandex/internal/conform"
	"spandex/internal/core"
)

func main() {
	seeds := flag.String("seeds", "0:200", "half-open seed range lo:hi to fuzz")
	threads := flag.Int("threads", 0, "max threads per case (0 = generator default)")
	phases := flag.Int("phases", 0, "max phases per case (0 = generator default)")
	ops := flag.Int("ops", 0, "mean ops per thread per phase (0 = generator default)")
	configs := flag.String("configs", "", "comma-separated configurations (default: all six)")
	replay := flag.String("replay", "", "replay a saved JSON case, on the machine it records, instead of fuzzing")
	out := flag.String("out", "testdata/conform", "directory for minimized failure reproducers")
	shrink := flag.Bool("shrink", true, "minimize failures before emitting them")
	shrinkBudget := flag.Int("shrink-budget", 400, "max property evaluations while shrinking")
	pressure := flag.Bool("pressure", false,
		"shrink every cache to a few lines (conform.PressureParams) so evictions and write-backs dominate")
	banks := flag.Int("banks", 0,
		"shard the Spandex LLC into N address-interleaved banks on a mesh NoC (0 = flat; combines with -pressure for tiny per-bank capacity)")
	covOut := flag.String("coverage-out", "",
		"write the (LLC state, message) pairs observed across every run as JSON, for the spandex-graph -diff cross-check")
	mutate := flag.String("mutate", "", "arm a seeded protocol mutation (dropinvack, skiprvko); requires -tags spandexmut")
	writeCorpus := flag.String("write-corpus", "", "regenerate the checked-in litmus corpus under the given directory and exit")
	verbose := flag.Bool("v", false, "per-seed progress on stderr")
	flag.Parse()

	die := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "spandex-fuzz: "+format+"\n", args...)
		os.Exit(1)
	}

	if *writeCorpus != "" {
		for _, c := range conform.CorpusCases() {
			path, err := conform.WriteCaseFile(c, *writeCorpus)
			if err != nil {
				die("%v", err)
			}
			fmt.Printf("wrote %s\n", path)
		}
		return
	}

	lo, hi, err := parseSeeds(*seeds)
	if err != nil {
		die("%v", err)
	}
	var cfgList []string
	if *configs != "" {
		cfgList = strings.Split(*configs, ",")
	}
	gp := conform.GenParams{MaxThreads: *threads, MaxPhases: *phases, OpsPerPhase: *ops}
	ro := conform.MachineOpts(*pressure, *banks)

	if *mutate != "" {
		disarm, err := armMutant(*mutate)
		if err != nil {
			die("%v", err)
		}
		defer disarm()
	}

	cov := core.NewTransitionCoverage()
	record := func(rep *conform.Report) {
		for _, o := range rep.Outcomes {
			cov.AddSnapshot(o.Res.Transitions)
		}
	}
	writeCoverage := func() {
		if *covOut == "" {
			return
		}
		if err := cov.WriteFile(*covOut); err != nil {
			die("%v", err)
		}
		fmt.Fprintf(os.Stderr, "coverage: %d distinct (state, msg) pairs -> %s\n", len(cov.Snapshot()), *covOut)
	}

	if *replay != "" {
		if *pressure || *banks != 0 {
			die("-replay runs the case on the machine it records; drop -pressure and -banks")
		}
		c, err := conform.LoadCaseFile(*replay)
		if err != nil {
			die("%v", err)
		}
		rep := conform.CheckCase(c, cfgList, conform.MachineOpts(c.Pressure, c.Banks))
		record(rep)
		writeCoverage()
		if rep.Failed() {
			fmt.Fprintln(os.Stderr, rep.Err())
			os.Exit(1)
		}
		fmt.Printf("case %s passed on %d configurations\n", c.Name, len(rep.Outcomes))
		return
	}

	start := time.Now()
	for seed := lo; seed < hi; seed++ {
		c := conform.Generate(seed, gp)
		rep := conform.CheckCase(c, cfgList, ro)
		record(rep)
		if *verbose {
			fmt.Fprintf(os.Stderr, "seed %d: %d threads, %d phases, %d ops: %s\n",
				seed, len(c.Threads), c.Phases, c.NumOps(), rep.Kind)
		}
		if !rep.Failed() {
			continue
		}

		fmt.Fprintf(os.Stderr, "seed %d FAILED (%s):\n", seed, rep.Kind)
		for _, f := range rep.Failures {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		// Confirm the failure replays bit-identically before shrinking
		// against it; a nondeterministic failure is reported by the first
		// divergent counter, not a fingerprint hash.
		for _, cn := range failingConfigs(rep) {
			if err := conform.RecheckDeterminism(c, cn, ro); err != nil {
				fmt.Fprintf(os.Stderr, "  warning: %s failure is nondeterministic: %v\n", cn, err)
			}
		}
		min := c
		if *shrink {
			// Shrink against the configurations that actually failed —
			// one or two runs per candidate instead of six — then
			// re-confirm the minimized case against the full oracle.
			failing := failingConfigs(rep)
			min = shrinkCase(c, failing, ro, *shrinkBudget)
			if final := conform.CheckCase(min, cfgList, ro); !final.Failed() {
				fmt.Fprintf(os.Stderr, "  (shrunken case no longer fails the full oracle; emitting the original)\n")
				min = c
			}
		}
		min.Pressure, min.Banks = *pressure, *banks
		path, err := conform.WriteCaseFile(min, *out)
		if err != nil {
			die("writing reproducer: %v", err)
		}
		fmt.Fprintf(os.Stderr, "  minimized to %d threads / %d ops / %d phases\n",
			len(min.Threads), min.NumOps(), min.Phases)
		fmt.Fprintf(os.Stderr, "  reproducer: spandex-fuzz -replay %s\n", path)
		writeCoverage()
		if *mutate != "" {
			fmt.Printf("mutation %s detected at seed %d (%d seeds tried, %s)\n",
				*mutate, seed, seed-lo+1, time.Since(start).Round(time.Millisecond))
			return // exit 0: the seeded bug was caught
		}
		os.Exit(1)
	}
	writeCoverage()
	if *mutate != "" {
		die("mutation %s went UNDETECTED across seeds [%d,%d)", *mutate, lo, hi)
	}
	fmt.Printf("seeds [%d,%d): all cases conform on %d configurations (%s)\n",
		lo, hi, nConfigs(cfgList), time.Since(start).Round(time.Millisecond))
}

// shrinkCase minimizes c against the failing configuration subset.
func shrinkCase(c *conform.Case, failing []string, ro conform.RunOpts, budget int) *conform.Case {
	fails := func(cand *conform.Case) bool {
		return conform.CheckCase(cand, failing, ro).Failed()
	}
	min, evals := conform.Shrink(c, fails, budget)
	fmt.Fprintf(os.Stderr, "  shrink: %d property evaluations\n", evals)
	min.Name = c.Name + "-min"
	return min
}

// failingConfigs lists the configurations a report implicates: those whose
// run errored, plus every config once any observational divergence exists
// (a divergence only manifests between two configs, so the subset check
// must keep both sides).
func failingConfigs(rep *conform.Report) []string {
	var out []string
	for _, o := range rep.Outcomes {
		if o.RunErr != nil {
			out = append(out, o.Config)
		}
	}
	if len(out) == 0 || rep.Kind == conform.KindDivergence {
		return rep.Configs
	}
	return out
}

func nConfigs(cfgList []string) int {
	if len(cfgList) == 0 {
		return len(spandex.ConfigNames())
	}
	return len(cfgList)
}

func parseSeeds(s string) (lo, hi uint64, err error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad -seeds %q (want lo:hi)", s)
	}
	if lo, err = strconv.ParseUint(parts[0], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("bad -seeds %q: %v", s, err)
	}
	if hi, err = strconv.ParseUint(parts[1], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("bad -seeds %q: %v", s, err)
	}
	if hi <= lo {
		return 0, 0, fmt.Errorf("bad -seeds %q (empty range)", s)
	}
	return lo, hi, nil
}
