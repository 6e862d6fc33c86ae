// Command spandex-trace runs one (workload, config) cell and renders what
// happened: the run's totals and validation verdict with the latency
// attribution and system-metrics summary, utilization timelines, the most
// contended lines, an address-space heatmap, a machine-readable metrics
// export, a filtered JSONL event stream, or a Chrome trace-event timeline
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing. It
// is the command that runs a single cell, so it also lists what can run,
// arms the per-transition invariant audit and verifies determinism.
//
// Usage:
//
//	spandex-trace -list                                         # workloads and configurations
//	spandex-trace -workload indirection -config SDD             # totals, latency + metrics summary
//	spandex-trace -workload litmus -config SMD -check           # ... under the per-transition audit
//	spandex-trace -workload bc -verify-determinism              # serial vs contended, bit-identical
//	spandex-trace -summary-out base.jsonl                       # save a baseline summary
//	spandex-trace -diff base.jsonl                              # compare against a baseline
//	spandex-trace -mode timeline                                # utilization sparklines
//	spandex-trace -mode lines -top 20                           # most contended lines
//	spandex-trace -mode heatmap -format dot -o heat.dot         # address-space heat (text|dot|csv)
//	spandex-trace -mode metrics -format jsonl -o metrics.jsonl  # metrics export (jsonl|csv)
//	spandex-trace -mode export -o trace.json                    # Perfetto timeline
//	spandex-trace -mode jsonl -o events.jsonl -addr 0x10000     # event stream
//	spandex-trace -mode validate -in trace.json                 # check a Chrome trace or metrics export
//
// A cell runs on Table VI's machine (spandex.DefaultParams, the one
// spandex.Run and spandex-bench build) unless -fast selects the shrunken
// FastParams machine. Every mode but jsonl and export checks the final
// memory state against the workload's oracle; those two stream every
// event, and the oracle's reads through the caches would join the stream.
//
// The summary's phase breakdown attributes each request's latency to
// network serialization, LLC service, LLC blocking (transient-state
// waits), owner indirection (forwarded requests), and DRAM — the
// mechanisms behind the paper's Figure 7 discussion. Observation is
// passive: the observed run's Result.Fingerprint is bit-identical to a
// bare run's.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"spandex"
	"spandex/internal/detsort"
	"spandex/internal/proto"
)

const modes = "summarize, timeline, lines, heatmap, metrics, jsonl, export, validate"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spandex-trace:", err)
		os.Exit(1)
	}
}

// run parses args and does what they ask, writing to stdout unless -o
// names a file.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("spandex-trace", flag.ExitOnError)
	mode := fs.String("mode", "summarize", "one of: "+modes)
	workloadName := fs.String("workload", "indirection", "workload to run (see -list)")
	configName := fs.String("config", "SDD", "cache configuration (Table V name, see -list)")
	seed := fs.Uint64("seed", 42, "workload input seed")
	fast := fs.Bool("fast", false, "use the shrunken FastParams machine instead of Table VI's")
	check := fs.Bool("check", false, "enable coherence invariant checking, including the per-transition SWMR audit")
	list := fs.Bool("list", false, "list workloads and configurations")
	verifyDet := fs.Bool("verify-determinism", false,
		"run the cell twice (serial, then under contention) and require bit-identical results")
	out := fs.String("o", "", "output file (default stdout)")
	in := fs.String("in", "", "validate mode: a Chrome trace or a metrics JSONL export")
	addrFlag := fs.String("addr", "", "jsonl mode: keep only events touching this address's cache line (e.g. 0x10000)")
	summaryOut := fs.String("summary-out", "", "summarize mode: append this run's measurement summary (JSONL) for later -diff")
	diffPath := fs.String("diff", "", "summarize mode: diff this run against a summary JSONL written by -summary-out")
	format := fs.String("format", "text", "heatmap: text|dot|csv; metrics: jsonl|csv")
	top := fs.Int("top", 10, "lines mode: how many lines/sets/rows to show")
	cols := fs.Int("cols", 64, "timeline/heatmap width in columns")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintln(stdout, "configurations:")
		for _, c := range spandex.Configurations() {
			fmt.Fprintf(stdout, "  %-5s LLC=%s CPU=%s GPU=%s\n", c.Name, c.LLC, c.CPU, c.GPU)
		}
		fmt.Fprintln(stdout, "workloads:")
		for _, n := range spandex.WorkloadNames() {
			w, _ := spandex.WorkloadByName(n)
			fmt.Fprintf(stdout, "  %-12s %s\n", n, w.Meta().Pattern)
		}
		return nil
	}
	switch *mode {
	case "summarize", "timeline", "lines", "heatmap", "metrics", "jsonl", "export":
	case "validate":
		if *in == "" {
			return fmt.Errorf("validate mode needs -in <trace.json|metrics.jsonl>")
		}
		return validate(stdout, *in)
	default:
		return fmt.Errorf("unknown mode %q (valid: %s)", *mode, modes)
	}

	w, err := spandex.WorkloadByName(*workloadName)
	if err != nil {
		return fmt.Errorf("%w (use -list to see available workloads)", err)
	}
	opt := spandex.Options{
		ConfigName:           *configName,
		Seed:                 *seed,
		CheckInvariants:      *check,
		CheckEveryTransition: *check,
		Validate:             *mode != "jsonl" && *mode != "export",
	}
	if *fast {
		p := spandex.FastParams()
		opt.Params = &p
	}
	if *verifyDet {
		reports, err := spandex.VerifyDeterminism(context.Background(),
			[]string{*workloadName}, []string{*configName}, opt, 1)
		if err != nil {
			return err
		}
		r := reports[0]
		fmt.Fprintf(stdout, "determinism verified: %s/%s fingerprint=%#016x serial=%s contended=%s\n",
			r.Workload, r.Config, r.Fingerprint,
			r.SerialWall.Round(time.Millisecond), r.ContendedWall.Round(time.Millisecond))
		return nil
	}
	opt.Observe = true

	output := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		output = f
	}

	var jsonl *spandex.JSONLTraceSink
	var chrome *spandex.ChromeTraceSink
	switch *mode {
	case "jsonl":
		jsonl = spandex.NewJSONLTraceSink(output)
		opt.TraceSink = jsonl
		if *addrFlag != "" {
			a, err := strconv.ParseUint(*addrFlag, 0, 64)
			if err != nil {
				return fmt.Errorf("bad -addr %q: %w", *addrFlag, err)
			}
			line := spandex.Addr(a).Line()
			opt.TraceSink = spandex.TraceFunc(func(ev spandex.TraceEvent) {
				switch {
				case ev.Msg != nil && ev.Msg.Line == line:
				case ev.Msg == nil && ev.Addr != 0 && ev.Addr.Line() == line:
				default:
					return
				}
				jsonl.Event(ev)
			})
		}
	case "export":
		chrome = spandex.NewChromeTraceSink()
		opt.TraceSink = chrome
	}

	start := time.Now()
	res, err := spandex.Run(w, opt)
	wall := time.Since(start)
	for _, v := range res.Violations {
		fmt.Fprintln(os.Stderr, "spandex-trace: violation:", v)
	}
	if err != nil {
		return err
	}

	switch *mode {
	case "summarize":
		totals(output, res, w.Meta().Pattern, wall)
		fmt.Fprintln(output)
		fmt.Fprint(output, spandex.RenderLatency(res))
		fmt.Fprintf(output, "\nSystem metrics (exec %.3f ms):\n", res.ExecMillis())
		res.Metrics.RenderSummary(output)
		return summarize(output, res, *workloadName, *configName, *seed, *diffPath, *summaryOut)

	case "timeline":
		fmt.Fprintf(output, "%s/%s utilization timelines (full run, %d cols)\n\n", *workloadName, *configName, *cols)
		res.Metrics.RenderTimeline(output, *cols)

	case "lines":
		res.Metrics.RenderTopLines(output, *top)

	case "heatmap":
		switch *format {
		case "text":
			res.Metrics.RenderHeatmap(output, *cols)
		case "dot":
			return res.Metrics.WriteHeatmapDOT(output)
		case "csv":
			return res.Metrics.WriteHeatmapCSV(output)
		default:
			return fmt.Errorf("unknown heatmap format %q (valid: text, dot, csv)", *format)
		}

	case "metrics":
		switch *format {
		case "jsonl", "text":
			return res.Metrics.WriteJSONL(output)
		case "csv":
			return res.Metrics.WriteCSV(output)
		default:
			return fmt.Errorf("unknown metrics format %q (valid: jsonl, csv)", *format)
		}

	case "jsonl":
		return jsonl.Close()

	case "export":
		if err := chrome.Close(output); err != nil {
			return err
		}
		if *out != "" {
			fmt.Fprintf(os.Stderr, "spandex-trace: %s/%s timeline (%d requests, exec %.3f ms) -> %s\n",
				*workloadName, *configName, res.Latency.Requests, res.ExecMillis(), *out)
		}
	}
	return nil
}

// totals prints the cell's simulated execution time, operation count and
// traffic per class, then the validation verdict: summarize mode
// validates, and a run that fails its oracle never gets here.
func totals(w io.Writer, res spandex.Result, pattern string, wall time.Duration) {
	fmt.Fprintf(w, "workload:   %s (%s)\n", res.Workload, pattern)
	fmt.Fprintf(w, "config:     %s\n", res.Config)
	fmt.Fprintf(w, "exec time:  %.3f ms simulated (%s wall)\n", res.ExecMillis(), wall.Round(time.Millisecond))
	fmt.Fprintf(w, "operations: %d\n", res.Ops)
	fmt.Fprintf(w, "traffic:    %d KB total (excluding DRAM)\n", res.Traffic.TotalBytes(false)/1024)
	for c := proto.Class(0); c < proto.NumClasses; c++ {
		if res.Traffic.Bytes[c] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-8s %10d bytes %8d msgs\n", c, res.Traffic.Bytes[c], res.Traffic.Messages[c])
	}
	fmt.Fprintln(w, "validation: final memory state matches the workload oracle")
}

// summarize handles the summary baseline flags: -diff compares this run
// against a saved summary, -summary-out appends this run's summary.
func summarize(w io.Writer, res spandex.Result, workload, config string, seed uint64, diffPath, summaryOut string) error {
	sum := spandex.Summarize(res, seed)
	if diffPath != "" {
		f, err := os.Open(diffPath)
		if err != nil {
			return err
		}
		base, err := spandex.ReadSummaryJSONL(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", diffPath, err)
		}
		match, err := spandex.MatchSummary(base, workload, config, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", diffPath, err)
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, spandex.DiffSummaries(match, sum))
	}
	if summaryOut != "" {
		f, err := os.OpenFile(summaryOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		if err := spandex.WriteSummaryJSONL(f, sum); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "spandex-trace: summary appended to %s\n", summaryOut)
	}
	return nil
}

// validate checks a Chrome trace or a metrics JSONL export. A metrics
// export is the file whose first record is a meta record.
func validate(w io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !isMetricsExport(data) {
		if err := spandex.ValidateChromeTrace(bytes.NewReader(data)); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(w, "%s: well-formed Chrome trace\n", path)
		return nil
	}
	counts, err := spandex.ValidateMetricsJSONL(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var kinds []string
	total := 0
	for _, k := range detsort.Keys(counts) {
		kinds = append(kinds, fmt.Sprintf("%s %d", k, counts[k]))
		total += counts[k]
	}
	fmt.Fprintf(w, "%s: well-formed metrics export, %d records (%s)\n", path, total, strings.Join(kinds, ", "))
	return nil
}

// isMetricsExport reports whether data's first JSON record is a metrics
// meta record (a Chrome trace is a single object without a kind).
func isMetricsExport(data []byte) bool {
	var rec struct {
		Kind string `json:"kind"`
	}
	return json.NewDecoder(bytes.NewReader(data)).Decode(&rec) == nil && rec.Kind == "meta"
}
