// Command spandex-trace runs one (workload, config) cell with the
// observability recorder installed and renders what happened: the latency
// attribution and system-metrics summary, utilization timelines, the most
// contended lines, an address-space heatmap, a machine-readable metrics
// export, a filtered JSONL event stream, or a Chrome trace-event timeline
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//
// Usage:
//
//	spandex-trace -workload indirection -config SDD             # latency + metrics summary
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
// The summary's phase breakdown attributes each request's latency to
// network serialization, LLC service, LLC blocking (transient-state
// waits), owner indirection (forwarded requests), and DRAM — the
// mechanisms behind the paper's Figure 7 discussion. Observation is
// passive: the observed run's Result.Fingerprint is bit-identical to a
// bare run's.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"spandex"
)

const modes = "summarize, timeline, lines, heatmap, metrics, jsonl, export, validate"

func main() {
	mode := flag.String("mode", "summarize", "one of: "+modes)
	workloadName := flag.String("workload", "indirection", "workload to run (see spandex-bench)")
	configName := flag.String("config", "SDD", "cache configuration (Table V name)")
	seed := flag.Uint64("seed", 42, "workload input seed")
	fast := flag.Bool("fast", true, "use the shrunken FastParams system (full Table VI otherwise)")
	out := flag.String("o", "", "output file (default stdout)")
	in := flag.String("in", "", "validate mode: a Chrome trace or a metrics JSONL export")
	addrFlag := flag.String("addr", "", "jsonl mode: keep only events touching this address's cache line (e.g. 0x10000)")
	summaryOut := flag.String("summary-out", "", "summarize mode: append this run's measurement summary (JSONL) for later -diff")
	diffPath := flag.String("diff", "", "summarize mode: diff this run against a summary JSONL written by -summary-out")
	format := flag.String("format", "text", "heatmap: text|dot|csv; metrics: jsonl|csv")
	top := flag.Int("top", 10, "lines mode: how many lines/sets/rows to show")
	cols := flag.Int("cols", 64, "timeline/heatmap width in columns")
	flag.Parse()

	switch *mode {
	case "summarize", "timeline", "lines", "heatmap", "metrics", "jsonl", "export":
	case "validate":
		if *in == "" {
			die(fmt.Errorf("validate mode needs -in <trace.json|metrics.jsonl>"))
		}
		validate(*in)
		return
	default:
		die(fmt.Errorf("unknown mode %q (valid: %s)", *mode, modes))
	}

	w, err := spandex.WorkloadByName(*workloadName)
	if err != nil {
		die(err)
	}
	opt := spandex.Options{ConfigName: *configName, Seed: *seed, Observe: true}
	if *fast {
		p := spandex.FastParams()
		opt.Params = &p
	}
	var output io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			die(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				die(err)
			}
		}()
		output = f
	}
	run := func() spandex.Result {
		res, err := spandex.Run(w, opt)
		if err != nil {
			die(err)
		}
		return res
	}

	switch *mode {
	case "summarize":
		res := run()
		fmt.Fprint(output, spandex.RenderLatency(res))
		fmt.Fprintf(output, "\nSystem metrics (exec %.3f ms):\n", res.ExecMillis())
		res.Metrics.RenderSummary(output)
		summarize(output, res, *workloadName, *configName, *seed, *diffPath, *summaryOut)

	case "timeline":
		fmt.Fprintf(output, "%s/%s utilization timelines (full run, %d cols)\n\n", *workloadName, *configName, *cols)
		run().Metrics.RenderTimeline(output, *cols)

	case "lines":
		run().Metrics.RenderTopLines(output, *top)

	case "heatmap":
		rep := run().Metrics
		switch *format {
		case "text":
			rep.RenderHeatmap(output, *cols)
		case "dot":
			err = rep.WriteHeatmapDOT(output)
		case "csv":
			err = rep.WriteHeatmapCSV(output)
		default:
			err = fmt.Errorf("unknown heatmap format %q (valid: text, dot, csv)", *format)
		}

	case "metrics":
		rep := run().Metrics
		switch *format {
		case "jsonl", "text":
			err = rep.WriteJSONL(output)
		case "csv":
			err = rep.WriteCSV(output)
		default:
			err = fmt.Errorf("unknown metrics format %q (valid: jsonl, csv)", *format)
		}

	case "jsonl":
		sink := spandex.NewJSONLTraceSink(output)
		opt.TraceSink = sink
		if *addrFlag != "" {
			a, err := strconv.ParseUint(*addrFlag, 0, 64)
			if err != nil {
				die(fmt.Errorf("bad -addr %q: %w", *addrFlag, err))
			}
			line := spandex.Addr(a).Line()
			opt.TraceSink = spandex.TraceFunc(func(ev spandex.TraceEvent) {
				switch {
				case ev.Msg != nil && ev.Msg.Line == line:
				case ev.Msg == nil && ev.Addr != 0 && ev.Addr.Line() == line:
				default:
					return
				}
				sink.Event(ev)
			})
		}
		run()
		err = sink.Close()

	case "export":
		sink := spandex.NewChromeTraceSink()
		opt.TraceSink = sink
		res := run()
		err = sink.Close(output)
		if *out != "" {
			fmt.Fprintf(os.Stderr, "spandex-trace: %s/%s timeline (%d requests, exec %.3f ms) -> %s\n",
				*workloadName, *configName, res.Latency.Requests, res.ExecMillis(), *out)
		}
	}
	if err != nil {
		die(err)
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "spandex-trace:", err)
	os.Exit(1)
}

// summarize handles the summary baseline flags: -diff compares this run
// against a saved summary, -summary-out appends this run's summary.
func summarize(w io.Writer, res spandex.Result, workload, config string, seed uint64, diffPath, summaryOut string) {
	sum := spandex.Summarize(res, seed)
	if diffPath != "" {
		f, err := os.Open(diffPath)
		if err != nil {
			die(err)
		}
		base, err := spandex.ReadSummaryJSONL(f)
		f.Close()
		if err != nil {
			die(fmt.Errorf("%s: %w", diffPath, err))
		}
		match, err := spandex.MatchSummary(base, workload, config, seed)
		if err != nil {
			die(fmt.Errorf("%s: %w", diffPath, err))
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, spandex.DiffSummaries(match, sum))
	}
	if summaryOut != "" {
		f, err := os.OpenFile(summaryOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			die(err)
		}
		if err := spandex.WriteSummaryJSONL(f, sum); err != nil {
			die(err)
		}
		if err := f.Close(); err != nil {
			die(err)
		}
		fmt.Fprintf(os.Stderr, "spandex-trace: summary appended to %s\n", summaryOut)
	}
}

// validate checks a Chrome trace or a metrics JSONL export. A metrics
// export is the file whose first record is a meta record.
func validate(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		die(err)
	}
	if !isMetricsExport(data) {
		if err := spandex.ValidateChromeTrace(bytes.NewReader(data)); err != nil {
			die(fmt.Errorf("%s: %w", path, err))
		}
		fmt.Printf("%s: well-formed Chrome trace\n", path)
		return
	}
	counts, err := spandex.ValidateMetricsJSONL(bytes.NewReader(data))
	if err != nil {
		die(fmt.Errorf("%s: %w", path, err))
	}
	kinds := make([]string, 0, len(counts))
	total := 0
	for k, n := range counts {
		kinds = append(kinds, k)
		total += n
	}
	sort.Strings(kinds)
	fmt.Printf("%s: well-formed metrics export, %d records (", path, total)
	for i, k := range kinds {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%s %d", k, counts[k])
	}
	fmt.Println(")")
}

// isMetricsExport reports whether data's first JSON record is a metrics
// meta record (a Chrome trace is a single object without a kind).
func isMetricsExport(data []byte) bool {
	var rec struct {
		Kind string `json:"kind"`
	}
	return json.NewDecoder(bytes.NewReader(data)).Decode(&rec) == nil && rec.Kind == "meta"
}
