// Command spandex-bench regenerates every table and figure of the Spandex
// paper's evaluation (Alsop, Sinclair, Adve — ISCA 2018).
//
// Usage:
//
//	spandex-bench                  # everything: tables, figures, headline
//	spandex-bench -figure 2        # only Figure 2 (microbenchmarks)
//	spandex-bench -figure 3        # only Figure 3 (applications)
//	spandex-bench -table III       # only one table
//	spandex-bench -headline        # only the Sbest-vs-Hbest summary
//	spandex-bench -seed 7 -check   # different input seed; invariant checks
//	spandex-bench -parallel 4 -progress    # 4 workers, per-cell progress
//	spandex-bench -verify-determinism      # serial vs contended bit-equality
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"spandex"
	"spandex/internal/core"
)

func main() {
	figure := flag.Int("figure", 0, "regenerate only figure 2 or 3")
	table := flag.String("table", "", "regenerate only one table (I..VII)")
	headline := flag.Bool("headline", false, "print only the headline summary")
	seed := flag.Uint64("seed", 42, "workload input seed")
	check := flag.Bool("check", false, "enable coherence invariant checking, including the per-transition SWMR audit (slower)")
	validate := flag.Bool("validate", true, "validate final memory state against each workload's oracle")
	parallel := flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
	progress := flag.Bool("progress", false, "print per-cell progress to stderr")
	verifyDet := flag.Bool("verify-determinism", false,
		"run sampled cells serially and under contention and require bit-identical results")
	covOut := flag.String("coverage-out", "",
		"write the (LLC state, message) pairs observed across every simulated cell as JSON, for the spandex-graph -diff cross-check")
	perfOut := flag.String("perf", "",
		"write a single-worker headline-sweep perf snapshot (BENCH JSON schema) to this path and exit")
	perfRounds := flag.Int("perf-rounds", 3, "perf mode: measurement rounds (throughput is best-of)")
	perfBaseline := flag.String("perf-baseline", "",
		"perf mode: compare against this BENCH_*.json and exit non-zero on regression")
	perfTolerance := flag.Float64("perf-tolerance", 0.10,
		"perf mode: allowed fractional regression vs the baseline")
	perfCPU := flag.String("perf-cpuprofile", "", "perf mode: write a CPU profile covering all rounds")
	perfMem := flag.String("perf-memprofile", "", "perf mode: write a heap profile after the last round")
	gitSHA := flag.String("git-sha", "", "git short SHA recorded in the perf snapshot")
	scale := flag.Bool("scale", false,
		"run the scalability sweep: scalemix on growing mesh systems (8..64 requestors), print exec-time/traffic-vs-device-count table")
	scaleConfigs := flag.String("scale-configs", "SDD,SMG", "scale mode: comma-separated configurations to sweep")
	scalePhases := flag.Int("scale-phases", 0, "scale mode: scalemix phase count (0 = workload default)")
	flag.Parse()

	opt := spandex.Options{
		Seed:                 *seed,
		CheckInvariants:      *check,
		CheckEveryTransition: *check,
		Validate:             *validate,
		RecordTransitions:    *covOut != "",
	}

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "spandex-bench:", err)
		os.Exit(1)
	}

	if *scale {
		names, err := parseScaleConfigs(*scaleConfigs)
		if err != nil {
			die(err)
		}
		if err := runScale(names, *seed, *scalePhases, *validate); err != nil {
			die(err)
		}
		return
	}

	if *perfOut != "" {
		if err := runPerf(*perfOut, *perfRounds, *seed, *gitSHA, *perfCPU, *perfMem,
			*perfBaseline, *perfTolerance); err != nil {
			die(err)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	mo := spandex.MatrixOptions{Workers: *parallel}
	if *progress {
		mo.Progress = func(done, total int, c spandex.Cell) {
			status := fmt.Sprintf("sim=%.3fms wall=%s", c.Result.ExecMillis(), c.Wall.Round(time.Millisecond))
			if c.Err != nil {
				status = "ERROR: " + c.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s/%s %s\n", done, total, c.Workload, c.Config, status)
		}
	}

	if *verifyDet {
		workloads := append(append([]string{}, spandex.Figure2Workloads()...), spandex.Figure3Workloads()...)
		reports, err := spandex.VerifyDeterminism(ctx, workloads, spandex.ConfigNames(), opt, 3)
		if err != nil {
			die(err)
		}
		fmt.Printf("determinism verified on %d sampled cells (serial vs contended rerun):\n", len(reports))
		for _, r := range reports {
			fmt.Printf("  %-12s %-5s fingerprint=%#016x serial=%s contended=%s\n",
				r.Workload, r.Config, r.Fingerprint,
				r.SerialWall.Round(time.Millisecond), r.ContendedWall.Round(time.Millisecond))
		}
		return
	}

	if *table != "" {
		out, err := spandex.RenderTable(*table)
		if err != nil {
			die(err)
		}
		fmt.Println(out)
		return
	}

	cov := core.NewTransitionCoverage()
	writeCoverage := func() {
		if *covOut == "" {
			return
		}
		if err := cov.WriteFile(*covOut); err != nil {
			die(err)
		}
		fmt.Fprintf(os.Stderr, "coverage: %d distinct (state, msg) pairs -> %s\n", len(cov.Snapshot()), *covOut)
	}

	runFig := func(n int) *spandex.FigureData {
		var f *spandex.FigureData
		var err error
		if n == 2 {
			f, err = spandex.RunFigure2Matrix(ctx, opt, mo)
		} else {
			f, err = spandex.RunFigure3Matrix(ctx, opt, mo)
		}
		if err != nil {
			die(err)
		}
		for _, c := range f.Raw {
			cov.AddSnapshot(c.Result.Transitions)
		}
		return f
	}

	if *figure != 0 {
		if *figure != 2 && *figure != 3 {
			die(fmt.Errorf("unknown figure %d (valid: 2, 3)", *figure))
		}
		fmt.Println(runFig(*figure).Render())
		writeCoverage()
		return
	}

	if *headline {
		start := time.Now()
		f2 := runFig(2)
		f3 := runFig(3)
		printHeadline(f2, f3)
		writeCoverage()
		if *progress {
			agg := spandex.Aggregate(append(append([]spandex.Cell{}, f2.Raw...), f3.Raw...))
			fmt.Fprintf(os.Stderr, "matrix wall time %s; %d KB simulated interconnect traffic\n",
				time.Since(start).Round(time.Millisecond), agg.Traffic.TotalBytes(false)/1024)
		}
		return
	}

	// Everything.
	for _, t := range []string{"I", "II", "III", "IV", "V", "VI", "VII"} {
		out, err := spandex.RenderTable(t)
		if err != nil {
			die(err)
		}
		fmt.Println(out)
	}
	f2 := runFig(2)
	fmt.Println(f2.Render())
	f3 := runFig(3)
	fmt.Println(f3.Render())
	printHeadline(f2, f3)
	writeCoverage()
}

func printHeadline(f2, f3 *spandex.FigureData) {
	h2 := f2.ComputeHeadline()
	h3 := f3.ComputeHeadline()
	fmt.Println("Headline (best Spandex configuration vs best hierarchical configuration)")
	fmt.Println("========================================================================")
	fmt.Printf("Microbenchmarks: execution time -%.0f%% (max %.0f%%), network traffic -%.0f%% (max %.0f%%)\n",
		h2.AvgTime*100, h2.MaxTime*100, h2.AvgTraffic*100, h2.MaxTraffic*100)
	fmt.Printf("  paper reports: -18%% (max 31%%), -40%% (max 69%%)\n")
	fmt.Printf("Applications:    execution time -%.0f%% (max %.0f%%), network traffic -%.0f%% (max %.0f%%)\n",
		h3.AvgTime*100, h3.MaxTime*100, h3.AvgTraffic*100, h3.MaxTraffic*100)
	fmt.Printf("  paper reports: -16%% (max 29%%), -27%% (max 58%%)\n")
}
