// Command perfbench is the repository benchmark. It runs one of three
// closed-loop workloads (paper-sweep, fuzz-conform, mcheck-suite) one unit
// at a time on a single P, checks every unit's verdict, and prints the
// end-to-end metrics, or with -trace 1 the per-layer metrics, as the last
// line of standard output. README.md describes the workloads, the metrics
// and the noise they were tuned against.
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 30 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// End-to-end metrics, with the units BENCHMARK.json declares. Every
// workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"sim_ops_per_s", "1/s"},
	{"max_rss_mb", "MB"},
}

// Per-layer metrics, reported by the traced run on every workload; a layer
// the workload does not reach reads 0.
var perLayer = func() []metricDef {
	var ds []metricDef
	for _, b := range cpuBuckets {
		ds = append(ds, metricDef{"cpu." + b + "_share", "share"})
	}
	ds = append(ds, metricDef{"cpu.alloc_share", "share"})
	for k := spanKind(0); k < numSpans; k++ {
		ds = append(ds, metricDef{spanMetric(k), "s"})
	}
	return append(ds, []metricDef{
		{"sim_time_us", "us"},
		{"traffic_bytes_per_op", "B/op"},
		{"device.access_retry_ratio", "ratio"},
		{"trace.overhead_ratio", "ratio"},
		{"runtime.allocs_per_op", "1/op"},
		{"runtime.alloc_bytes_per_op", "B/op"},
		{"runtime.gc_cycles", "count"},
		{"workload.ops", "count"},
		{"sim.events_per_op", "1/op"},
		{"noc.msgs_per_op", "1/op"},
		{"mesi.l1_hit_ratio", "ratio"},
		{"denovo.l1_hit_ratio", "ratio"},
		{"gpucoh.l1_hit_ratio", "ratio"},
		{"core.llc_queued_per_op", "1/op"},
		{"core.llc_forwards_per_op", "1/op"},
		{"core.llc_blocked_rvk_per_op", "1/op"},
		{"core.tu_probes_per_op", "1/op"},
		{"hmesi.dir_queued_per_op", "1/op"},
		{"hmesi.gpul2_queued_per_op", "1/op"},
		{"conform.checked_transitions_per_case", "1/case"},
		{"mcheck.states", "count"},
		{"mcheck.transitions", "count"},
		{"mcheck.max_depth", "count"},
		{"mcheck.ample_commit_ratio", "ratio"},
		{"mcheck.sleep_skips_per_transition", "ratio"},
	}...)
}()

type metricDef struct{ name, unit string }

// spanMetric names a span's per-layer metric: its self time per pass.
func spanMetric(k spanKind) string {
	if k == spanSystemRun {
		return "span.system_run_self_s"
	}
	return "span." + spanNames[k] + "_s"
}

const (
	// setupProbes is how many times set-up is measured; setup_s is the
	// median.
	setupProbes = 31
	// minPasses is the fewest passes a measured run makes, however long
	// they take: run_s is the median pass.
	minPasses = 3
	// probesPerPass bounds the host probes a pass makes.
	probesPerPass = 50
	// refProbe is the host probe's time on the reference host: run_s is
	// seconds on a host where one probe walk takes refProbe.
	refProbe = 500 * time.Microsecond
)

type options struct {
	workload   string
	seed       uint64
	seconds    int
	trace      int
	traceDir   string
	setupProbe bool
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	runtime.GOMAXPROCS(1)
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "paper-sweep, fuzz-conform or mcheck-suite")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed: the Build seed on paper-sweep, the case-seed block on fuzz-conform; mcheck-suite has none")
	fs.IntVar(&o.seconds, "seconds", 30, "how long to keep measuring")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", "", "where the traced run writes its span table and CPU profile")
	fs.BoolVar(&o.setupProbe, "setup-probe", false, "print when set-up finished (UnixNano) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	if !slices.Contains(strings.Split(os.Getenv("GODEBUG"), ","), "gcstoptheworld=1") {
		fmt.Fprintln(os.Stderr, "perfbench: GODEBUG must hold gcstoptheworld=1; run it through run.sh")
		return 2
	}
	units := w.units(o.seed)
	if o.setupProbe {
		fmt.Println(time.Now().UnixNano())
		return 0
	}

	r, err := runWorkload(w, units, o, args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return r.print(o.trace == 0)
}

func runWorkload(w *workload, units []unit, o options, args []string) (report, error) {
	hp, err := newHostProbe()
	if err != nil {
		return report{}, err
	}
	if o.trace == 1 {
		return traced(w, units, o, hp)
	}
	setup, err := measureSetup(args)
	if err != nil {
		return report{}, err
	}
	r := measure(w, units, o, hp)
	r.metrics["setup_s"] = setup
	return r, nil
}

// measureSetup runs set-up alone in fresh processes: each one's time from
// just before exec to the moment its unit list is built, as its wall clock
// reads it. Returns the median in seconds. It is not scaled by the host
// probe: process start-up did not track it.
func measureSetup(args []string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ds []float64
	for i := 0; i < setupProbes; i++ {
		t0 := time.Now()
		out, err := exec.Command(exe, append([]string{"-setup-probe"}, args...)...).Output()
		if err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		ds = append(ds, time.Duration(ns-t0.UnixNano()).Seconds())
	}
	return median(ds), nil
}

// hostProbe times a fixed random read-modify-write walk over a 1 MiB table.
// Before each timed walk the table is loaded and then flushed out of a
// 2 MiB L2 cache by touching a 3 MiB buffer, both untimed, so every walk
// starts from the same cache state whatever the unit before it did: no
// program change moves the probe. On a shared host, neighbours slow the
// walk and the simulator alike, since both wait on the shared cache and
// memory. The memory is mapped outside the Go heap so that it does not
// change the program's GC pacing.
type hostProbe struct{ table, flush []byte }

func newHostProbe() (*hostProbe, error) {
	mem, err := syscall.Mmap(-1, 0, 4<<20, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	return &hostProbe{table: mem[:1<<20], flush: mem[1<<20:]}, nil
}

func (h *hostProbe) run() time.Duration {
	for _, buf := range [][]byte{h.table, h.flush} {
		for i := 0; i < len(buf); i += 64 {
			buf[i]++
		}
	}
	t0 := time.Now()
	x := uint64(1)
	mask := uint64(len(h.table) - 1)
	for i := 0; i < 50_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		h.table[(x>>20)&mask] += byte(x)
	}
	return time.Since(t0)
}

// pass is one run over every unit of a workload.
type pass struct {
	// wall is the units' host time, the probes' time excluded.
	wall time.Duration
	// probe is the median host probe time (runPass).
	probe   time.Duration
	fps     []uint64
	n       counts
	failed  int
	mallocs uint64
	bytes   uint64
	gcs     uint64
}

// runPass runs every unit once. With a probe, the host probe runs between
// units, probesPerPass times at most; passes under the CPU profiler leave
// it out so that its samples do not land in any layer.
func runPass(units []unit, tr *tracer, hp *hostProbe) pass {
	p := pass{fps: make([]uint64, len(units))}
	var probes []float64
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	every := max(1, len(units)/probesPerPass)
	for i, u := range units {
		if hp != nil && i%every == 0 {
			probes = append(probes, hp.run().Seconds())
		}
		tr.startUnit(i)
		t0 := time.Now()
		o := runUnit(u, tr)
		p.wall += time.Since(t0)
		if o.err != nil {
			p.failed++
			fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %v\n", u.name, o.err)
			continue
		}
		p.fps[i] = o.fp
		p.n.add(o.n)
	}
	if hp != nil {
		p.probe = time.Duration(median(probes) * 1e9)
	}
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.bytes = m1.TotalAlloc - m0.TotalAlloc
	p.gcs = uint64(m1.NumGC - m0.NumGC)
	return p
}

// seconds is the pass's unit time at reference host speed.
func (p pass) seconds() float64 {
	return p.wall.Seconds() * float64(refProbe) / float64(p.probe)
}

// medianSeconds is the median of the passes' times at reference host speed.
func medianSeconds(ps []pass) float64 {
	var xs []float64
	for _, p := range ps {
		xs = append(xs, p.seconds())
	}
	return median(xs)
}

// runUnit turns a panic inside the program into the unit's failure.
func runUnit(u unit, tr *tracer) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			o = outcome{err: fmt.Errorf("panic: %v", r)}
		}
	}()
	return u.run(tr)
}

// report is one invocation's result.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	// detail goes on the line before the result: the run's fingerprint and
	// the exact counts later changes can diff.
	detail map[string]any
}

// newReport starts a report from a run's passes, with their failure
// accounting. Every pass must reproduce the first pass's fingerprints: a
// unit that does not counts as failed.
func newReport(w *workload, o options, passes []pass) report {
	r := report{metrics: map[string]float64{}, detail: map[string]any{
		"workload":    w.name,
		"seed":        o.seed,
		"fingerprint": fmt.Sprintf("%016x", fingerprint(passes[0].fps...)),
		"exact":       passes[0].n.exactMetrics(),
	}}
	for _, p := range passes {
		r.attempted += len(p.fps)
		r.failed += p.failed
		for i, fp := range p.fps {
			if fp != 0 && passes[0].fps[i] != 0 && fp != passes[0].fps[i] {
				r.failed++
				fmt.Fprintf(os.Stderr, "perfbench: FAIL unit %d: fingerprint %016x differs from first pass %016x\n",
					i, fp, passes[0].fps[i])
			}
		}
	}
	return r
}

// measure makes passes until the time is up (at least minPasses) and
// reports the end-to-end metrics.
func measure(w *workload, units []unit, o options, hp *hostProbe) report {
	start := time.Now()
	var passes []pass
	for len(passes) < minPasses || time.Since(start) < time.Duration(o.seconds)*time.Second {
		p := runPass(units, nil, hp)
		passes = append(passes, p)
		fmt.Fprintf(os.Stderr, "perfbench: %s pass %d: %.3fs\n", w.name, len(passes), p.wall.Seconds())
		if p.failed > 0 {
			break
		}
	}
	r := newReport(w, o, passes)
	r.detail["runtime"] = runtimeMetrics(passes)
	var walls, probes []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		probes = append(probes, p.probe.Seconds()*1e6)
	}
	r.detail["pass_s"] = walls
	r.detail["probe_us"] = probes

	n := passes[0].n
	runS := medianSeconds(passes)
	r.metrics["run_s"] = runS
	r.metrics["sim_ops_per_s"] = float64(n.ops) / runS
	r.metrics["max_rss_mb"] = maxRSSMB()
	return r
}

// runtimeMetrics are the allocation and GC counts of a pass, the median
// over passes: they repeat to within a few allocations.
func runtimeMetrics(passes []pass) map[string]float64 {
	var allocs, bytes, gcs []float64
	for _, p := range passes {
		allocs = append(allocs, ratio(p.mallocs, p.n.ops))
		bytes = append(bytes, ratio(p.bytes, p.n.ops))
		gcs = append(gcs, float64(p.gcs))
	}
	return map[string]float64{
		"runtime.allocs_per_op":      median(allocs),
		"runtime.alloc_bytes_per_op": median(bytes),
		"runtime.gc_cycles":          median(gcs),
	}
}

// traced is the per-layer run: rounds of one plain pass, one pass under the
// CPU profiler and one pass with spans, until the time is up (at least one
// round). Shares come from the profiled passes, so the span wrappers'
// overhead does not distort them; spans come from the traced passes.
func traced(w *workload, units []unit, o options, hp *hostProbe) (report, error) {
	start := time.Now()
	tr := newTracer(len(units))
	var prof cpuProfile
	var passes, plain, withSpans []pass
	var firstProfile []byte
	for len(plain) == 0 || time.Since(start) < time.Duration(o.seconds)*time.Second {
		p := runPass(units, nil, hp)
		plain = append(plain, p)

		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return report{}, err
		}
		pp := runPass(units, nil, nil)
		pprof.StopCPUProfile()
		stacks, err := parseProfile(buf.Bytes())
		if err != nil {
			return report{}, err
		}
		prof.add(stacks)
		if firstProfile == nil {
			firstProfile = buf.Bytes()
		}

		tp := runPass(units, tr, hp)
		withSpans = append(withSpans, tp)
		passes = append(passes, p, pp, tp)
		fmt.Fprintf(os.Stderr, "perfbench: %s round %d: plain %.3fs profiled %.3fs traced %.3fs\n",
			w.name, len(plain), p.wall.Seconds(), pp.wall.Seconds(), tp.wall.Seconds())
		if p.failed+pp.failed+tp.failed > 0 {
			break
		}
	}
	r := newReport(w, o, passes)
	for k, v := range passes[0].n.exactMetrics() {
		r.metrics[k] = v
	}
	for k, v := range runtimeMetrics(plain) {
		r.metrics[k] = v
	}
	for k, v := range prof.shares() {
		r.metrics[k] = v
	}
	nt := float64(len(withSpans))
	for k := spanKind(0); k < numSpans; k++ {
		r.metrics[spanMetric(k)] = tr.selfSeconds(k) / nt
	}
	r.metrics["device.access_retry_ratio"] = ratio(tr.refused, tr.accesses)
	r.metrics["trace.overhead_ratio"] = medianSeconds(withSpans) / medianSeconds(plain)
	r.detail["cpu_samples"] = prof.total
	if o.traceDir != "" {
		if err := writeTrace(o, w, units, tr, len(withSpans), firstProfile); err != nil {
			return report{}, err
		}
	}
	return r, nil
}

// writeTrace writes the traced run's spans, aggregated per (unit, span) and
// averaged over the traced passes, and the first profiled pass's CPU
// profile (for go tool pprof).
func writeTrace(o options, w *workload, units []unit, tr *tracer, passes int, profile []byte) error {
	type spanOut struct {
		Calls  float64 `json:"calls"`
		TotalS float64 `json:"total_s"`
		SelfS  float64 `json:"self_s"`
	}
	type unitOut struct {
		Unit  string             `json:"unit"`
		Spans map[string]spanOut `json:"spans"`
	}
	var out []unitOut
	n := float64(passes)
	for i, u := range units {
		uo := unitOut{Unit: u.name, Spans: map[string]spanOut{}}
		for k, a := range tr.units[i] {
			if a.Calls > 0 {
				uo.Spans[spanNames[k]] = spanOut{float64(a.Calls) / n, a.Total.Seconds() / n, a.Self.Seconds() / n}
			}
		}
		out = append(out, uo)
	}
	data, err := json.MarshalIndent(map[string]any{
		"workload": w.name, "seed": o.seed, "traced_passes": passes, "units": out,
	}, "", " ")
	if err != nil {
		return err
	}
	base := filepath.Join(o.traceDir, fmt.Sprintf("perfbench-%s-seed%d", w.name, o.seed))
	if err := os.WriteFile(base+".spans.json", data, 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", profile, 0o644)
}

// print writes the detail line and the result line, and returns the exit
// code: 1 when any unit failed.
func (r report) print(endToEndRun bool) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := perLayer
	if endToEndRun {
		defs = endToEnd
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			panic("perfbench: metric " + d.name + " was not computed")
		}
		metrics[d.name] = value{v, d.unit}
	}
	detail, err := json.Marshal(r.detail)
	if err != nil {
		panic(err)
	}
	res, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s\n%s\n", detail, res)
	if r.failed > 0 {
		return 1
	}
	return 0
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
