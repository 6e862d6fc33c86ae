package spandex

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"spandex/internal/obs"
)

// obsCell is one (workload, config) cell of the headline matrix.
type obsCell struct{ workload, config string }

// obsMatrix returns the full headline matrix: every Figure 2 and Figure 3
// workload across every Table V configuration (9×6). In -short mode it
// shrinks to one microbenchmark and one application across all configs.
func obsMatrix() []obsCell {
	workloads := append(append([]string{}, Figure2Workloads()...), Figure3Workloads()...)
	if testing.Short() {
		workloads = []string{"indirection", "tqh"}
	}
	var cells []obsCell
	for _, w := range workloads {
		for _, c := range ConfigNames() {
			cells = append(cells, obsCell{w, c})
		}
	}
	return cells
}

// runObsCell runs one cell. When traced, the recorder is on (latency
// phase machine and metrics registry) with a JSONL sink streaming to
// io.Discard, so the full event-serialization path executes too.
func runObsCell(cl obsCell, traced bool) (Result, error) {
	w, err := WorkloadByName(cl.workload)
	if err != nil {
		return Result{}, err
	}
	p := FastParams()
	opt := Options{ConfigName: cl.config, Params: &p, Seed: 7}
	if traced {
		opt.Observe = true
		opt.TraceSink = NewJSONLTraceSink(io.Discard)
	}
	return Run(w, opt)
}

// runObsMatrix runs every cell concurrently (one goroutine per cell,
// bounded by GOMAXPROCS) and returns the results in cell order.
func runObsMatrix(t *testing.T, cells []obsCell, traced bool) []Result {
	t.Helper()
	results := make([]Result, len(cells))
	errs := make([]error, len(cells))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, cl := range cells {
		wg.Add(1)
		go func(i int, cl obsCell) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = runObsCell(cl, traced)
		}(i, cl)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s/%s: %v", cells[i].workload, cells[i].config, err)
		}
	}
	return results
}

// TestObserverNeutrality is the acceptance gate for the observability
// layer: observing must leave Result.Fingerprint bit-identical to a bare
// run, for every cell of the full headline matrix, with traced cells
// executed both under goroutine contention and serially. Tracing
// observes; it never perturbs.
func TestObserverNeutrality(t *testing.T) {
	cells := obsMatrix()
	bare := runObsMatrix(t, cells, false)
	traced := runObsMatrix(t, cells, true)
	for i, cl := range cells {
		if bare[i].Fingerprint() != traced[i].Fingerprint() {
			t.Errorf("%s/%s: traced fingerprint %#x != bare %#x — tracing perturbed the run",
				cl.workload, cl.config, traced[i].Fingerprint(), bare[i].Fingerprint())
		}
		if traced[i].Latency == nil {
			t.Errorf("%s/%s: traced run has no latency report", cl.workload, cl.config)
		} else if traced[i].Latency.Requests == 0 {
			t.Errorf("%s/%s: latency report tracked zero requests", cl.workload, cl.config)
		}
		if bare[i].Latency != nil {
			t.Errorf("%s/%s: bare run unexpectedly produced a latency report", cl.workload, cl.config)
		}
		if traced[i].Metrics == nil {
			t.Errorf("%s/%s: traced run has no metrics report", cl.workload, cl.config)
		} else if len(traced[i].Metrics.Links) == 0 {
			t.Errorf("%s/%s: metrics report saw no link traffic", cl.workload, cl.config)
		}
		if bare[i].Metrics != nil {
			t.Errorf("%s/%s: bare run unexpectedly produced a metrics report", cl.workload, cl.config)
		}
	}
	// Serial spot-check: parallel execution of the traced runs above must
	// not have influenced them either — re-running a sample of cells alone
	// in this goroutine yields the same fingerprints, and the telemetry is
	// identical too: the same latency report and byte-identical metrics
	// exports, serial or parallel.
	sample := []int{0, len(cells) / 2, len(cells) - 1}
	for _, i := range sample {
		res, err := runObsCell(cells[i], true)
		if err != nil {
			t.Fatal(err)
		}
		cl := cells[i]
		if res.Fingerprint() != traced[i].Fingerprint() {
			t.Errorf("%s/%s: serial traced fingerprint differs from parallel traced run",
				cl.workload, cl.config)
		}
		if !reflect.DeepEqual(res.Latency, traced[i].Latency) {
			t.Errorf("%s/%s: serial latency report differs from parallel traced run",
				cl.workload, cl.config)
		}
		var serial, parallel bytes.Buffer
		if err := res.Metrics.WriteJSONL(&serial); err != nil {
			t.Fatal(err)
		}
		if err := traced[i].Metrics.WriteJSONL(&parallel); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
			t.Errorf("%s/%s: serial metrics export differs from parallel traced run",
				cl.workload, cl.config)
		}
	}
}

// TestPhaseReconciliation checks the central latency-attribution
// invariant: for every operation class, the per-phase breakdown sums
// exactly to the end-to-end latency total — the phase machine closes one
// interval per event, so no tick is dropped or double-counted — and no
// request is left unfinished at quiescence.
func TestPhaseReconciliation(t *testing.T) {
	for _, wname := range []string{"indirection", "tqh"} {
		for _, cname := range ConfigNames() {
			t.Run(wname+"/"+cname, func(t *testing.T) {
				res, err := runObsCell(obsCell{wname, cname}, true)
				if err != nil {
					t.Fatal(err)
				}
				r := res.Latency
				if r == nil {
					t.Fatal("no latency report")
				}
				if r.Unfinished != 0 {
					t.Errorf("%d requests unfinished at quiescence", r.Unfinished)
				}
				var total uint64
				for _, c := range r.Classes {
					if got, want := c.PhaseSum(), c.TotalTicks; got != want {
						t.Errorf("class %s: phase sum %d != total %d (off by %d)",
							c.Class, got, want, int64(got)-int64(want))
					}
					if c.Count == 0 {
						t.Errorf("class %s present with zero count", c.Class)
					}
					if c.Max < c.P99 || c.P99 < c.P50 {
						t.Errorf("class %s: quantiles not monotonic: p50=%d p99=%d max=%d",
							c.Class, c.P50, c.P99, c.Max)
					}
					total += c.Count
				}
				if total != r.Requests {
					t.Errorf("class counts sum to %d, report says %d requests", total, r.Requests)
				}
			})
		}
	}
}

// TestChromeExportValidates runs traced cells with the Chrome trace-event
// sink and requires the exported file to pass the same well-formedness
// validation CI applies: valid JSON, every async slice closed, ends after
// begins. It also checks the node-name metadata made it in.
func TestChromeExportValidates(t *testing.T) {
	for _, cl := range []obsCell{{"indirection", "SDD"}, {"tqh", "HMG"}} {
		t.Run(cl.workload+"/"+cl.config, func(t *testing.T) {
			w, err := WorkloadByName(cl.workload)
			if err != nil {
				t.Fatal(err)
			}
			p := FastParams()
			sink := NewChromeTraceSink()
			_, err = Run(w, Options{ConfigName: cl.config, Params: &p, Seed: 7,
				Observe: true, TraceSink: sink})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := sink.Close(&buf); err != nil {
				t.Fatal(err)
			}
			if err := ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("exported trace fails validation: %v", err)
			}
			for _, label := range []string{"process_name", "cpu0"} {
				if !strings.Contains(buf.String(), label) {
					t.Errorf("exported trace missing %q", label)
				}
			}
		})
	}
}

// TestObserveTees checks that System.Observe composes: two sinks
// installed one after the other both see the full event stream.
func TestObserveTees(t *testing.T) {
	run := func(nsinks int) []int {
		sys, err := NewSystem(Options{ConfigName: "SDD"})
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, nsinks)
		for i := 0; i < nsinks; i++ {
			i := i
			sys.Observe(obs.FuncSink(func(obs.Event) { counts[i]++ }))
		}
		prog := &Program{}
		lay := NewLayout()
		addr := lay.Words(4)
		prog.CPU = append(prog.CPU, GoThread(func(th *Thread) {
			th.Store(WordAddr(addr, 0), 1)
			th.Fence(true, true)
			_ = th.Load(WordAddr(addr, 1))
		}))
		defer prog.Close()
		if err := sys.Attach(prog); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(0); err != nil {
			t.Fatal(err)
		}
		return counts
	}
	counts := run(2)
	if counts[0] == 0 {
		t.Fatal("observer saw no events")
	}
	if counts[0] != counts[1] {
		t.Fatalf("teed sinks diverge: %d vs %d events", counts[0], counts[1])
	}
}

// TestRenderLatency smoke-checks the report renderer on a traced and an
// untraced result.
func TestRenderLatency(t *testing.T) {
	res, err := runObsCell(obsCell{"indirection", "SDD"}, true)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderLatency(res)
	for _, frag := range []string{"Request latency", "indirection", "SDD", "load", "Phase breakdown", "DRAM"} {
		if !strings.Contains(out, frag) {
			t.Errorf("rendered latency report missing %q:\n%s", frag, out)
		}
	}
	bare, err := runObsCell(obsCell{"indirection", "SDD"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderLatency(bare); !strings.Contains(out, "no data") {
		t.Errorf("untraced render should point at Options.Observe:\n%s", out)
	}
}

// TestJSONLExportShape runs one traced cell through the JSONL sink and
// checks the stream is one well-formed JSON object per line with the
// documented field names.
func TestJSONLExportShape(t *testing.T) {
	w, err := WorkloadByName("indirection")
	if err != nil {
		t.Fatal(err)
	}
	p := FastParams()
	var buf bytes.Buffer
	sink := NewJSONLTraceSink(&buf)
	if _, err := Run(w, Options{ConfigName: "SDD", Params: &p, Seed: 7, TraceSink: sink}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 100 {
		t.Fatalf("suspiciously few events: %d", len(lines))
	}
	var sawIssue, sawDeliver bool
	for i, ln := range lines {
		if !strings.HasPrefix(ln, `{"at":`) {
			t.Fatalf("line %d does not open with the at field: %s", i, ln)
		}
		if strings.Contains(ln, `"ev":"OpIssue"`) {
			sawIssue = true
		}
		if strings.Contains(ln, `"ev":"MsgDeliver"`) {
			sawDeliver = true
		}
	}
	if !sawIssue || !sawDeliver {
		t.Fatalf("stream missing event kinds: issue=%v deliver=%v", sawIssue, sawDeliver)
	}
}

// benchObserve times one headline cell with observation off or on. The
// Disabled/Enabled pair is what the CI overhead guard reports: disabled
// must stay within noise of the pre-instrumentation baseline (the
// instrumented sites reduce to nil checks), enabled shows the cost of the
// recorder (phase machine plus metrics registry) a user opts into.
func benchObserve(b *testing.B, on bool) {
	w, err := WorkloadByName("indirection")
	if err != nil {
		b.Fatal(err)
	}
	p := FastParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(w, Options{ConfigName: "SDD", Params: &p, Seed: 7, Observe: on}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunObserveDisabled(b *testing.B) { benchObserve(b, false) }
func BenchmarkRunObserveEnabled(b *testing.B)  { benchObserve(b, true) }
