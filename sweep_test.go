package spandex

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// fastOpt returns Options sized for quick matrix tests, with every cell's
// final-state oracle on.
func fastOpt() Options {
	p := FastParams()
	return Options{Params: &p, Seed: 1, Validate: true}
}

// fastMatrix is a small but representative matrix: one microbenchmark, one
// application, and the litmus programs, across all six configurations.
func fastMatrix() (workloads, configs []string) {
	return []string{"indirection", "tqh", "litmus"}, ConfigNames()
}

// TestSweepSerialParallelIdentical is the core determinism guarantee: a
// parallel sweep must produce bit-identical measurements to a serial one,
// cell for cell, in the same matrix order.
func TestSweepSerialParallelIdentical(t *testing.T) {
	workloads, configs := fastMatrix()
	opt := fastOpt()
	serial := RunMatrix(context.Background(), workloads, configs, opt, MatrixOptions{Workers: 1})
	parallel := RunMatrix(context.Background(), workloads, configs, opt, MatrixOptions{Workers: 8})
	if err := CellsEquivalent(serial, parallel); err != nil {
		t.Fatalf("parallel sweep diverged from serial: %v", err)
	}
	for i := range serial {
		if serial[i].Err != nil {
			t.Errorf("cell %s/%s: %v", serial[i].Workload, serial[i].Config, serial[i].Err)
			continue
		}
		if serial[i].Result.Fingerprint() != parallel[i].Result.Fingerprint() {
			t.Fatalf("cell %s/%s fingerprint mismatch", serial[i].Workload, serial[i].Config)
		}
	}
}

// TestFigureSerialParallelByteIdentical renders the same figure from a
// serial and a parallel sweep and requires byte-identical output.
func TestFigureSerialParallelByteIdentical(t *testing.T) {
	workloads := []string{"indirection"}
	opt := fastOpt()
	build := func(workers int) string {
		cells := RunMatrix(context.Background(), workloads, ConfigNames(), opt, MatrixOptions{Workers: workers})
		f, err := BuildFigure("t", workloads, cells)
		if err != nil {
			t.Fatal(err)
		}
		return f.Render()
	}
	if s, p := build(1), build(6); s != p {
		t.Fatalf("rendered figure differs between serial and parallel sweeps:\n--- serial\n%s\n--- parallel\n%s", s, p)
	}
}

// TestRunMatrixWorkerCounts exercises the worker-count edge cases: 0
// (defaults to GOMAXPROCS), 1, and more workers than cells.
func TestRunMatrixWorkerCounts(t *testing.T) {
	workloads := []string{"litmus"}
	configs := []string{"HMG", "SDD"}
	opt := fastOpt()
	ref := RunMatrix(context.Background(), workloads, configs, opt, MatrixOptions{Workers: 1})
	for _, workers := range []int{0, 1, 64} {
		cells := RunMatrix(context.Background(), workloads, configs, opt, MatrixOptions{Workers: workers})
		if len(cells) != len(workloads)*len(configs) {
			t.Fatalf("workers=%d: got %d cells, want %d", workers, len(cells), len(workloads)*len(configs))
		}
		if err := CellsEquivalent(ref, cells); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
	if cells := RunMatrix(context.Background(), nil, configs, opt, MatrixOptions{}); cells != nil {
		t.Fatalf("empty matrix returned %d cells", len(cells))
	}
}

// panicWorkload panics while building its program, standing in for any
// panic inside a cell (a protocol assertion, a stalled validation read).
type panicWorkload struct{}

func (panicWorkload) Meta() Meta { return Meta{Name: "test-panic"} }

func (panicWorkload) Build(Machine, uint64) *Program { panic("deliberate test panic") }

func init() { RegisterWorkload(panicWorkload{}) }

// TestRunMatrixErrorIsolation checks that a failing cell (unknown config
// or workload, or a panic) does not abort its siblings.
func TestRunMatrixErrorIsolation(t *testing.T) {
	cells := RunMatrix(context.Background(),
		[]string{"litmus", "not-a-workload", "test-panic"}, []string{"SDD", "not-a-config"},
		fastOpt(), MatrixOptions{Workers: 4})
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	for _, c := range cells {
		bad := c.Workload != "litmus" || c.Config == "not-a-config"
		if bad && c.Err == nil {
			t.Errorf("%s/%s: expected error", c.Workload, c.Config)
		}
		if !bad && c.Err != nil {
			t.Errorf("%s/%s: sibling failed: %v", c.Workload, c.Config, c.Err)
		}
	}
	// The panic's error names the workload, config, seed and panic value.
	want := "test-panic/SDD seed 1: panic: deliberate test panic"
	if c := cells[4]; c.Err == nil || !strings.Contains(c.Err.Error(), want) {
		t.Errorf("panicking cell error = %v, want it to contain %q", c.Err, want)
	}
}

// TestRunMatrixCancellation cancels mid-sweep and checks that cells not
// yet started come back with the context error while completed cells keep
// their results.
func TestRunMatrixCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cells := RunMatrix(ctx, []string{"litmus"}, ConfigNames(), fastOpt(), MatrixOptions{
		Workers: 1,
		Progress: func(done, total int, c Cell) {
			if done == 1 {
				cancel()
			}
		},
	})
	var ok, canceled int
	for _, c := range cells {
		switch {
		case c.Err == nil:
			ok++
		case errors.Is(c.Err, context.Canceled):
			canceled++
		default:
			t.Errorf("%s/%s: unexpected error %v", c.Workload, c.Config, c.Err)
		}
	}
	if ok == 0 {
		t.Error("no cell completed before cancellation")
	}
	if canceled == 0 {
		t.Error("no cell observed the cancellation")
	}
}

// TestRunMatrixProgress checks the progress callback fires exactly once
// per cell with a monotonically increasing done count.
func TestRunMatrixProgress(t *testing.T) {
	var calls []int
	cells := RunMatrix(context.Background(), []string{"litmus"}, ConfigNames(), fastOpt(), MatrixOptions{
		Workers: 4,
		Progress: func(done, total int, c Cell) {
			if total != 6 {
				t.Errorf("total = %d, want 6", total)
			}
			calls = append(calls, done)
		},
	})
	if len(calls) != len(cells) {
		t.Fatalf("progress fired %d times for %d cells", len(calls), len(cells))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress done counts %v not monotonic", calls)
		}
	}
}

// TestVerifyDeterminism runs the verification mode on the fast matrix.
func TestVerifyDeterminism(t *testing.T) {
	reports, err := VerifyDeterminism(context.Background(),
		[]string{"litmus", "indirection"}, []string{"HMG", "SDD"}, fastOpt(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(reports))
	}
	for _, r := range reports {
		if r.Fingerprint == 0 {
			t.Errorf("%s/%s: zero fingerprint", r.Workload, r.Config)
		}
	}
}

// TestAggregate checks matrix-level snapshot merging: the aggregate's
// traffic equals the sum of the cells', exec time the max.
func TestAggregate(t *testing.T) {
	cells := RunMatrix(context.Background(), []string{"litmus"}, []string{"HMG", "SDD"},
		fastOpt(), MatrixOptions{Workers: 2})
	agg := Aggregate(cells)
	var wantBytes, wantMax uint64
	for _, c := range cells {
		if c.Err != nil {
			t.Fatalf("%s/%s: %v", c.Workload, c.Config, c.Err)
		}
		wantBytes += c.Result.Traffic.TotalBytes(true)
		if uint64(c.Result.ExecTime) > wantMax {
			wantMax = uint64(c.Result.ExecTime)
		}
	}
	if got := agg.Traffic.TotalBytes(true); got != wantBytes {
		t.Errorf("aggregate traffic %d, want %d", got, wantBytes)
	}
	if uint64(agg.ExecTime) != wantMax {
		t.Errorf("aggregate exec time %d, want max %d", agg.ExecTime, wantMax)
	}
}

// TestResultFingerprintSensitivity: different cells must (overwhelmingly)
// fingerprint differently; the same cell twice must match exactly.
func TestResultFingerprintSensitivity(t *testing.T) {
	opt := fastOpt()
	w, err := WorkloadByName("litmus")
	if err != nil {
		t.Fatal(err)
	}
	o := opt
	o.ConfigName = "SDD"
	a, err := Run(w, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical runs produced different fingerprints")
	}
	o.Seed = 2
	c, err := Run(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different seeds produced identical fingerprints")
	}
}
