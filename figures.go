package spandex

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"spandex/internal/detsort"
	"spandex/internal/proto"
	"spandex/internal/workload"
)

// ConfigNames returns the Table V configuration names in paper order.
func ConfigNames() []string {
	var names []string
	for _, c := range Configurations() {
		names = append(names, c.Name)
	}
	return names
}

// FigureData is the normalized content of one of the paper's result
// figures (Figure 2 for microbenchmarks, Figure 3 for applications):
// execution time and per-class network traffic for each configuration,
// normalized to HMG.
type FigureData struct {
	Title     string
	Workloads []string
	Configs   []string
	// Time[workload][config] is execution time normalized to HMG.
	Time map[string]map[string]float64
	// Traffic[workload][config][class] is traffic normalized to HMG total.
	Traffic map[string]map[string]map[string]float64
	// Raw keeps the underlying cells for inspection.
	Raw []Cell
}

// BuildFigure normalizes a sweep into figure form.
func BuildFigure(title string, workloads []string, cells []Cell) (*FigureData, error) {
	f := &FigureData{
		Title:     title,
		Workloads: workloads,
		Configs:   ConfigNames(),
		Time:      map[string]map[string]float64{},
		Traffic:   map[string]map[string]map[string]float64{},
		Raw:       cells,
	}
	byKey := map[string]Cell{}
	for _, c := range cells {
		if c.Err != nil {
			return nil, fmt.Errorf("%s on %s: %w", c.Workload, c.Config, c.Err)
		}
		byKey[c.Workload+"/"+c.Config] = c
	}
	for _, wn := range workloads {
		base, ok := byKey[wn+"/HMG"]
		if !ok {
			return nil, fmt.Errorf("missing HMG baseline for %s", wn)
		}
		baseTime := float64(base.Result.ExecTime)
		baseTraffic := float64(base.Result.Traffic.TotalBytes(false))
		f.Time[wn] = map[string]float64{}
		f.Traffic[wn] = map[string]map[string]float64{}
		for _, cn := range f.Configs {
			c, ok := byKey[wn+"/"+cn]
			if !ok {
				return nil, fmt.Errorf("missing cell %s/%s", wn, cn)
			}
			f.Time[wn][cn] = float64(c.Result.ExecTime) / baseTime
			classes := map[string]float64{}
			for cl := proto.Class(0); cl < proto.NumClasses; cl++ {
				if cl == proto.ClassMem {
					continue
				}
				classes[cl.String()] = float64(c.Result.Traffic.Bytes[cl]) / baseTraffic
			}
			f.Traffic[wn][cn] = classes
		}
	}
	return f, nil
}

// trafficTotal sums one cell's per-class traffic in class-name order:
// floating-point addition is not associative, so a sum in map order could
// round differently from call to call.
func trafficTotal(byClass map[string]float64) float64 {
	var s float64
	for _, cl := range detsort.Keys(byClass) {
		s += byClass[cl]
	}
	return s
}

// BestPair reports, for one workload, the best (minimum metric)
// hierarchical and Spandex configurations.
func (f *FigureData) BestPair(wn string, metric func(cfg string) float64) (hbest, sbest float64) {
	hbest, sbest = -1, -1
	for _, cn := range f.Configs {
		v := metric(cn)
		if strings.HasPrefix(cn, "H") {
			if hbest < 0 || v < hbest {
				hbest = v
			}
		} else {
			if sbest < 0 || v < sbest {
				sbest = v
			}
		}
	}
	return
}

// Headline summarizes Sbest-vs-Hbest reductions across a figure's
// workloads (the abstract's headline numbers).
type Headline struct {
	// Per-workload reductions, 0.16 = 16% lower than the best
	// hierarchical configuration.
	TimeReduction    map[string]float64
	TrafficReduction map[string]float64
	AvgTime, MaxTime float64
	AvgTraffic       float64
	MaxTraffic       float64
}

// ComputeHeadline derives the Sbest/Hbest comparison for a figure.
func (f *FigureData) ComputeHeadline() Headline {
	h := Headline{
		TimeReduction:    map[string]float64{},
		TrafficReduction: map[string]float64{},
	}
	for _, wn := range f.Workloads {
		ht, st := f.BestPair(wn, func(cn string) float64 { return f.Time[wn][cn] })
		red := 1 - st/ht
		h.TimeReduction[wn] = red
		h.AvgTime += red
		if red > h.MaxTime {
			h.MaxTime = red
		}
		hb, sb := f.BestPair(wn, func(cn string) float64 { return trafficTotal(f.Traffic[wn][cn]) })
		tred := 1 - sb/hb
		h.TrafficReduction[wn] = tred
		h.AvgTraffic += tred
		if tred > h.MaxTraffic {
			h.MaxTraffic = tred
		}
	}
	n := float64(len(f.Workloads))
	h.AvgTime /= n
	h.AvgTraffic /= n
	return h
}

// Render formats the figure as text: a normalized execution-time table
// followed by a traffic-breakdown table, matching the paper's Figures 2/3
// presentation.
func (f *FigureData) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	fmt.Fprintf(&b, "%s\n\n", strings.Repeat("=", len(f.Title)))

	fmt.Fprintf(&b, "Execution time (normalized to HMG; lower is better)\n")
	fmt.Fprintf(&b, "%-12s", "workload")
	for _, cn := range f.Configs {
		fmt.Fprintf(&b, "%8s", cn)
	}
	fmt.Fprintln(&b)
	for _, wn := range f.Workloads {
		fmt.Fprintf(&b, "%-12s", wn)
		for _, cn := range f.Configs {
			fmt.Fprintf(&b, "%8.2f", f.Time[wn][cn])
		}
		fmt.Fprintln(&b)
	}

	fmt.Fprintf(&b, "\nNetwork traffic by request class (normalized to HMG total)\n")
	classes := []string{"ReqV", "ReqS", "ReqWT", "ReqO", "ReqWB", "Probe", "Atomic"}
	for _, wn := range f.Workloads {
		fmt.Fprintf(&b, "%s\n", wn)
		fmt.Fprintf(&b, "  %-8s", "class")
		for _, cn := range f.Configs {
			fmt.Fprintf(&b, "%8s", cn)
		}
		fmt.Fprintln(&b)
		for _, cl := range classes {
			allZero := true
			for _, cn := range f.Configs {
				if f.Traffic[wn][cn][cl] > 0.0005 {
					allZero = false
				}
			}
			if allZero {
				continue
			}
			fmt.Fprintf(&b, "  %-8s", cl)
			for _, cn := range f.Configs {
				fmt.Fprintf(&b, "%8.2f", f.Traffic[wn][cn][cl])
			}
			fmt.Fprintln(&b)
		}
		fmt.Fprintf(&b, "  %-8s", "total")
		for _, cn := range f.Configs {
			fmt.Fprintf(&b, "%8.2f", trafficTotal(f.Traffic[wn][cn]))
		}
		fmt.Fprintln(&b)
	}

	h := f.ComputeHeadline()
	fmt.Fprintf(&b, "\nSbest vs Hbest (best Spandex vs best hierarchical configuration)\n")
	var wls []string
	wls = append(wls, f.Workloads...)
	sort.Strings(wls)
	for _, wn := range f.Workloads {
		fmt.Fprintf(&b, "  %-12s time -%4.0f%%   traffic -%4.0f%%\n",
			wn, h.TimeReduction[wn]*100, h.TrafficReduction[wn]*100)
	}
	fmt.Fprintf(&b, "  %-12s time -%4.0f%% (max %4.0f%%)   traffic -%4.0f%% (max %4.0f%%)\n",
		"AVERAGE", h.AvgTime*100, h.MaxTime*100, h.AvgTraffic*100, h.MaxTraffic*100)
	return b.String()
}

// Figure2Workloads are the synthetic microbenchmarks of Figure 2.
func Figure2Workloads() []string { return workload.Microbenchmarks() }

// Figure3Workloads are the collaborative applications of Figure 3.
func Figure3Workloads() []string { return workload.Applications() }

// RunFigure2 regenerates the paper's Figure 2 (parallel across GOMAXPROCS).
func RunFigure2(opt Options) (*FigureData, error) {
	return RunFigure2Matrix(context.Background(), opt, MatrixOptions{})
}

// RunFigure3 regenerates the paper's Figure 3 (parallel across GOMAXPROCS).
func RunFigure3(opt Options) (*FigureData, error) {
	return RunFigure3Matrix(context.Background(), opt, MatrixOptions{})
}

// RunFigure2Matrix regenerates Figure 2 with explicit scheduling control:
// worker count, cancellation, and per-cell progress.
func RunFigure2Matrix(ctx context.Context, opt Options, mo MatrixOptions) (*FigureData, error) {
	cells := RunMatrix(ctx, Figure2Workloads(), ConfigNames(), opt, mo)
	return BuildFigure("Figure 2: synthetic microbenchmarks", Figure2Workloads(), cells)
}

// RunFigure3Matrix regenerates Figure 3 with explicit scheduling control.
func RunFigure3Matrix(ctx context.Context, opt Options, mo MatrixOptions) (*FigureData, error) {
	cells := RunMatrix(ctx, Figure3Workloads(), ConfigNames(), opt, mo)
	return BuildFigure("Figure 3: collaborative applications", Figure3Workloads(), cells)
}
