package spandex

import (
	"testing"
)

// The benchmarks below regenerate the paper's evaluation artifacts: one
// benchmark per figure workload (Figures 2 and 3) plus the table printers.
// Each iteration runs the workload on all six Table V configurations and
// reports the paper's two metrics as custom units:
//
//	Hbest-ns / Sbest-ns     — simulated execution time of the best
//	                          hierarchical / Spandex configuration
//	Sbest-time-red-%        — Sbest execution-time reduction vs Hbest
//	Sbest-traffic-red-%     — Sbest network-traffic reduction vs Hbest
//
// Run with: go test -bench=. -benchmem
func benchWorkload(b *testing.B, title, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cells := Sweep([]string{name}, ConfigNames(), Options{Seed: 42})
		f, err := BuildFigure(title, []string{name}, cells)
		if err != nil {
			b.Fatal(err)
		}
		h := f.ComputeHeadline()
		hb, sb := f.BestPair(name, func(cn string) float64 { return f.Time[name][cn] })
		// Un-normalize against the HMG cell to report simulated time.
		var hmgNs float64
		for _, c := range cells {
			if c.Config == "HMG" {
				hmgNs = float64(c.Result.ExecTime) / 1000 // ticks(ps) → ns
			}
		}
		b.ReportMetric(hb*hmgNs, "Hbest-simns")
		b.ReportMetric(sb*hmgNs, "Sbest-simns")
		b.ReportMetric(h.TimeReduction[name]*100, "Sbest-time-red-%")
		b.ReportMetric(h.TrafficReduction[name]*100, "Sbest-traffic-red-%")
	}
}

// --- Figure 2: synthetic microbenchmarks ---

func BenchmarkFigure2Indirection(b *testing.B) { benchWorkload(b, "fig2", "indirection") }
func BenchmarkFigure2ReuseO(b *testing.B)      { benchWorkload(b, "fig2", "reuseo") }
func BenchmarkFigure2ReuseS(b *testing.B)      { benchWorkload(b, "fig2", "reuses") }

// --- Figure 3: collaborative applications ---

func BenchmarkFigure3BC(b *testing.B)   { benchWorkload(b, "fig3", "bc") }
func BenchmarkFigure3PR(b *testing.B)   { benchWorkload(b, "fig3", "pr") }
func BenchmarkFigure3HSTI(b *testing.B) { benchWorkload(b, "fig3", "hsti") }
func BenchmarkFigure3TRNS(b *testing.B) { benchWorkload(b, "fig3", "trns") }
func BenchmarkFigure3RSCT(b *testing.B) { benchWorkload(b, "fig3", "rsct") }
func BenchmarkFigure3TQH(b *testing.B)  { benchWorkload(b, "fig3", "tqh") }

// --- Tables I-VII (rendering is trivial; benchmarked for completeness of
// the per-experiment index in DESIGN.md) ---

func BenchmarkTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, t := range []string{"I", "II", "III", "IV", "V", "VI", "VII"} {
			if _, err := RenderTable(t); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (host time
// per simulated operation) on the heaviest workload/config pair.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, err := WorkloadByName("rsct")
	if err != nil {
		b.Fatal(err)
	}
	var ops uint64
	for i := 0; i < b.N; i++ {
		res, err := Run(w, Options{ConfigName: "HMG", Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		ops += res.Ops
	}
	b.ReportMetric(float64(ops)/float64(b.N), "simops/iter")
}

// BenchmarkAblation quantifies DESIGN.md's called-out design choices by
// re-running one representative workload with the relevant dimension
// toggled; see also the ablation benches in the protocol packages.
func BenchmarkAblationTULatency(b *testing.B) {
	// TU lookup latency: paper §III-F argues the TU adds a single cycle;
	// this ablation doubles it and reports the slowdown on the
	// MESI-heavy SMD configuration.
	w, err := WorkloadByName("hsti")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		base := DefaultParams()
		fast, err := Run(w, Options{ConfigName: "SMD", Params: &base, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		slow := DefaultParams()
		slow.TULatencyCycles = 8
		slowRes, err := Run(w, Options{ConfigName: "SMD", Params: &slow, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(slowRes.ExecTime)/float64(fast.ExecTime), "slowdown-8cyc-TU")
	}
}

func BenchmarkAblationDeNovoRegions(b *testing.B) {
	// DeNovo regions (paper §II-C): selective self-invalidation recovers
	// the dense-read reuse that full acquire flashes destroy in ReuseS.
	// Compare the SDD configuration with and without region hints.
	plain, err := WorkloadByName("reuses")
	if err != nil {
		b.Fatal(err)
	}
	regions, err := WorkloadByName("reuses-regions")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		full, err := Run(plain, Options{ConfigName: "SDD", Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		reg, err := Run(regions, Options{ConfigName: "SDD", Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(full.ExecTime)/float64(reg.ExecTime), "regions-speedup")
		b.ReportMetric(float64(full.Traffic.TotalBytes(false))/float64(reg.Traffic.TotalBytes(false)),
			"regions-traffic-saving")
	}
}

func BenchmarkAblationReqSOption2(b *testing.B) {
	// ReqS policy ablation (Table III): option (2) trades away all
	// requestor-side read reuse for zero Shared-state overhead. ReuseS on
	// SMG shows the cost directly.
	w, err := WorkloadByName("reuses")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		def, err := Run(w, Options{ConfigName: "SMG", Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		opt2, err := Run(w, Options{ConfigName: "SMG", Seed: 42, ReqSOption2: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(opt2.ExecTime)/float64(def.ExecTime), "opt2-slowdown")
		b.ReportMetric(float64(opt2.Traffic.TotalBytes(false))/float64(def.Traffic.TotalBytes(false)),
			"opt2-traffic")
	}
}

func BenchmarkAblationWordVsLineOwnership(b *testing.B) {
	// Word-granularity ownership is Spandex's key mechanism; TRNS's packed
	// lock array shows it. Compare SDD (word ownership everywhere) with
	// SMG (line-granularity MESI CPU + write-through GPU).
	w, err := WorkloadByName("trns")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		word, err := Run(w, Options{ConfigName: "SDD", Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		line, err := Run(w, Options{ConfigName: "SMG", Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(line.ExecTime)/float64(word.ExecTime), "line-vs-word-slowdown")
		b.ReportMetric(float64(line.Traffic.TotalBytes(false))/float64(word.Traffic.TotalBytes(false)),
			"line-vs-word-traffic")
	}
}

// BenchmarkHeadlineSweep times the 54 cells of perfbench's paper-sweep, the
// Figure 2+3 matrix on a single worker, at seed 42 with validation off.
func BenchmarkHeadlineSweep(b *testing.B) {
	wls := append(append([]string{}, Figure2Workloads()...), Figure3Workloads()...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cells := RunMatrix(nil, wls, ConfigNames(), Options{Seed: 42}, MatrixOptions{Workers: 1})
		for _, c := range cells {
			if c.Err != nil {
				b.Fatalf("%s/%s: %v", c.Workload, c.Config, c.Err)
			}
		}
	}
}
