package spandex

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"spandex/internal/stats"
	"spandex/internal/workload"
)

// Cell is one (workload, configuration) measurement within a sweep.
type Cell struct {
	Workload string
	Config   string
	Result   Result
	Err      error
	// Wall is the host wall-clock time the cell took to simulate. It is
	// the only non-deterministic field: everything in Result is a pure
	// function of (workload, config, Options), so comparisons between
	// serial and parallel sweeps must ignore Wall (see CellsEquivalent).
	Wall time.Duration
}

// MatrixOptions controls how RunMatrix schedules the (workload, config)
// cells of a sweep.
type MatrixOptions struct {
	// Workers is the number of concurrent simulations; <= 0 means
	// GOMAXPROCS. Each cell runs on its own fully-isolated System, so any
	// worker count produces bit-identical Results (only Wall varies).
	Workers int
	// Progress, when non-nil, is called after each cell completes with
	// the number of cells done so far and the total. Calls are serialized
	// (never concurrent) but arrive in completion order, which under
	// parallelism is not matrix order.
	Progress func(done, total int, c Cell)
}

// RunMatrix fans the full workloads × configs matrix out across a worker
// pool, each cell simulated on its own isolated System. Results come back
// densely in (workload, config) matrix order regardless of completion
// order, so the output is independent of scheduling.
//
// Cancelling ctx stops cells that have not started (they come back with
// Err = ctx.Err()); cells already simulating run to completion, since the
// discrete-event engine is not preemptible. A cell that fails — unknown
// workload, unknown configuration, deadlock, validation failure, panic —
// only marks its own Cell.Err; sibling cells are unaffected.
func RunMatrix(ctx context.Context, workloads, configs []string, opt Options, mo MatrixOptions) []Cell {
	if ctx == nil {
		ctx = context.Background()
	}
	cells := make([]Cell, 0, len(workloads)*len(configs))
	for _, wn := range workloads {
		for _, cn := range configs {
			cells = append(cells, Cell{Workload: wn, Config: cn})
		}
	}
	if len(cells) == 0 {
		return nil
	}
	workers := mo.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // serializes Progress and the done count
		done int
		jobs = make(chan int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				runCell(ctx, &cells[i], opt)
				if mo.Progress != nil {
					mu.Lock()
					done++
					mo.Progress(done, len(cells), cells[i])
					mu.Unlock()
				}
			}
		}()
	}
	for i := range cells {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return cells
}

// runCell simulates one cell in place.
func runCell(ctx context.Context, c *Cell, opt Options) {
	if err := ctx.Err(); err != nil {
		c.Err = err
		return
	}
	defer func() {
		if r := recover(); r != nil {
			c.Err = fmt.Errorf("spandex: %s/%s seed %d: panic: %v", c.Workload, c.Config, opt.Seed, r)
		}
	}()
	w, err := WorkloadByName(c.Workload)
	if err != nil {
		c.Err = err
		return
	}
	o := opt
	o.ConfigName = c.Config
	start := time.Now()
	c.Result, c.Err = Run(w, o)
	c.Wall = time.Since(start)
}

// Sweep runs every named workload on every named configuration across
// GOMAXPROCS workers. Results come back in (workload, config) order and
// are bit-identical to a serial sweep (Run is isolated; see its doc).
// Use RunMatrix directly for cancellation, progress, or worker control.
func Sweep(workloads, configs []string, opt Options) []Cell {
	return RunMatrix(context.Background(), workloads, configs, opt, MatrixOptions{})
}

// Aggregate merges every successful cell's measurements into one mergeable
// snapshot: total traffic, summed counters, and the maximum simulated
// exec time across cells.
func Aggregate(cells []Cell) stats.Snapshot {
	agg := stats.Snapshot{Counters: map[string]uint64{}}
	for _, c := range cells {
		if c.Err != nil {
			continue
		}
		agg = agg.Merge(stats.Snapshot{
			Traffic:  c.Result.Traffic,
			ExecTime: c.Result.ExecTime,
			Counters: c.Result.Counters,
		})
	}
	return agg
}

// fingerprintedResultFields and fingerprintExemptResultFields partition
// every Result field: a field is either folded into Fingerprint (value =
// what it contributes) or deliberately excluded (value = why). The split
// is the single source of truth for what "bit-identical runs" means —
// TestFingerprintFieldPartition walks Result by reflection and fails when
// a new field is added without choosing a side, so an observability
// field can never silently leak into the fingerprint (or a measurement
// silently escape it).
var fingerprintedResultFields = map[string]string{
	"Config":   "run identity: the Table V configuration name",
	"Workload": "run identity: the workload name",
	"ExecTime": "simulated behaviour: completion time",
	"Traffic":  "simulated behaviour: per-class interconnect traffic",
	"Counters": "simulated behaviour: protocol event counts",
	"Ops":      "simulated behaviour: device operations executed",
	"MemHash":  "simulated behaviour: final DRAM image",
}

var fingerprintExemptResultFields = map[string]string{
	"Events":            "engine throughput denominator; pooling/event-structure changes alter it while the machine stays bit-identical",
	"Violations":        "checker diagnostics, populated only when invariants already failed",
	"ViolationsDropped": "checker diagnostics overflow count",
	"Transitions":       "coverage recorder output; a diagnostic view of behaviour already hashed via Counters",
	"Latency":           "observability: latency attribution observes the run, it is not part of it",
	"Metrics":           "observability: the metrics registry observes the run, it is not part of it",
}

// Fingerprint returns a deterministic hash of everything a run measures:
// workload and configuration names, execution time, the per-class traffic
// breakdown, all protocol counters, operation count, and the final DRAM
// image hash. Wall-clock time and every observability product are
// deliberately excluded — see fingerprintedResultFields /
// fingerprintExemptResultFields for the full, test-enforced partition.
// Two runs of the same cell are bit-identical iff their fingerprints
// match.
func (r Result) Fingerprint() uint64 {
	h := stats.Snapshot{Traffic: r.Traffic, ExecTime: r.ExecTime, Counters: r.Counters}.Fingerprint()
	h = stats.FNVAddString(h, r.Config)
	h = stats.FNVAddString(h, r.Workload)
	h = stats.FNVAdd(h, r.Ops)
	h = stats.FNVAdd(h, r.MemHash)
	return h
}

// DiffResults explains the first difference between two runs of what
// should be the same cell, or returns nil if they are bit-identical. The
// explanation names the first divergent measurement in a deterministic
// order (stats.Snapshot.FirstDiff: exec time, traffic classes, counters
// sorted by name) — never a raw fingerprint hash, which would name
// nothing. The fuzzer and the determinism verifier both report through
// this, so a nondeterminism failure always points at a counter.
func DiffResults(a, b Result) error {
	if a.Ops != b.Ops {
		return fmt.Errorf("operation count differs: %d vs %d", a.Ops, b.Ops)
	}
	sa := stats.Snapshot{Traffic: a.Traffic, ExecTime: a.ExecTime, Counters: a.Counters}
	sb := stats.Snapshot{Traffic: b.Traffic, ExecTime: b.ExecTime, Counters: b.Counters}
	if d := sa.FirstDiff(sb); d != "" {
		return fmt.Errorf("%s", d)
	}
	if a.MemHash != b.MemHash {
		return fmt.Errorf("final DRAM image differs: %#x vs %#x", a.MemHash, b.MemHash)
	}
	if a.Fingerprint() != b.Fingerprint() {
		// Every measured quantity matched, so the identity fields folded
		// into the fingerprint must differ.
		return fmt.Errorf("run identity differs: %s/%s vs %s/%s",
			a.Workload, a.Config, b.Workload, b.Config)
	}
	return nil
}

// CellsEquivalent reports whether two sweeps of the same matrix produced
// bit-identical measurements, ignoring wall-clock time. It returns the
// first difference found.
func CellsEquivalent(a, b []Cell) error {
	if len(a) != len(b) {
		return fmt.Errorf("cell count differs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Workload != b[i].Workload || a[i].Config != b[i].Config {
			return fmt.Errorf("cell %d identity differs: %s/%s vs %s/%s",
				i, a[i].Workload, a[i].Config, b[i].Workload, b[i].Config)
		}
		if (a[i].Err == nil) != (b[i].Err == nil) {
			return fmt.Errorf("cell %s/%s error state differs: %v vs %v",
				a[i].Workload, a[i].Config, a[i].Err, b[i].Err)
		}
		if a[i].Err != nil {
			continue
		}
		if err := DiffResults(a[i].Result, b[i].Result); err != nil {
			return fmt.Errorf("cell %s/%s: %w", a[i].Workload, a[i].Config, err)
		}
	}
	return nil
}

// DeterminismReport describes one cell checked by VerifyDeterminism.
type DeterminismReport struct {
	Workload, Config string
	// SerialWall and ContendedWall are the host wall-clock times of the
	// reference run and the rerun under contention.
	SerialWall, ContendedWall time.Duration
	// Fingerprint is the (identical) fingerprint of both runs.
	Fingerprint uint64
}

// VerifyDeterminism samples up to `samples` cells of the workloads ×
// configs matrix and runs each twice: once alone (serial reference) and
// once while sibling cells simulate concurrently on every other core
// (contention). The two Results must be bit-identical — exec time, traffic
// breakdown, counters, op count, and final DRAM hash — otherwise an error
// describing the first divergence is returned. Sampling is deterministic
// in opt.Seed.
func VerifyDeterminism(ctx context.Context, workloads, configs []string, opt Options, samples int) ([]DeterminismReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	type key struct{ wn, cn string }
	var cells []key
	for _, wn := range workloads {
		for _, cn := range configs {
			cells = append(cells, key{wn, cn})
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("spandex: empty matrix")
	}
	if samples <= 0 || samples > len(cells) {
		samples = len(cells)
	}
	rng := workload.NewRand(opt.Seed ^ 0xdec0de)
	order := rng.Perm(len(cells))

	var reports []DeterminismReport
	for _, idx := range order[:samples] {
		if err := ctx.Err(); err != nil {
			return reports, err
		}
		wn, cn := cells[idx].wn, cells[idx].cn

		ref := Cell{Workload: wn, Config: cn}
		runCell(ctx, &ref, opt)
		if ref.Err != nil {
			return reports, fmt.Errorf("spandex: reference run of %s/%s failed: %w", wn, cn, ref.Err)
		}

		// Rerun the same cell while sibling cells load the scheduler, so
		// goroutines interleave as adversarially as they will in a real
		// parallel sweep. At least one contender even on GOMAXPROCS=1:
		// the coroutine handshakes still interleave across simulations.
		contenders := runtime.GOMAXPROCS(0) - 1
		if contenders < 1 {
			contenders = 1
		}
		if contenders > 3 {
			contenders = 3
		}
		var wg sync.WaitGroup
		for i := 0; i < contenders; i++ {
			bg := cells[(idx+1+i)%len(cells)]
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := Cell{Workload: bg.wn, Config: bg.cn}
				runCell(ctx, &c, opt)
			}()
		}
		rerun := Cell{Workload: wn, Config: cn}
		runCell(ctx, &rerun, opt)
		wg.Wait()
		if rerun.Err != nil {
			return reports, fmt.Errorf("spandex: contended run of %s/%s failed: %w", wn, cn, rerun.Err)
		}

		if err := DiffResults(ref.Result, rerun.Result); err != nil {
			return reports, fmt.Errorf("spandex: %s/%s is not deterministic under contention: %w", wn, cn, err)
		}
		reports = append(reports, DeterminismReport{
			Workload: wn, Config: cn,
			SerialWall: ref.Wall, ContendedWall: rerun.Wall,
			Fingerprint: ref.Result.Fingerprint(),
		})
	}
	return reports, nil
}
