package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"os"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"spandex/internal/device"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		// GC background work wins over everything below it.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.sweepone", "runtime.bgsweep"}, "runtime.gc"},
		// A coroutine switch wins over the repository frames calling it.
		{[]string{"runtime.coroswitch_m", "runtime.mcall"}, "runtime.coro"},
		{[]string{"runtime.coroswitch", "iter.Pull[...].func2", "spandex/internal/workload.(*coroStream).Next",
			"spandex/internal/device.(*CPUCore).step"}, "runtime.coro"},
		// Malloc and the standard library are charged to the innermost
		// repository caller.
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "spandex/internal/cache.NewArray",
			"spandex/internal/mesi.New", "spandex.NewSystem"}, "cache"},
		{[]string{"runtime.mapaccess1_faststr", "spandex/internal/stats.(*Stats).Counter"}, "stats"},
		{[]string{"spandex.(*System).Run", "main.runCell"}, "system"},
		{[]string{"spandex/internal/sim.(*Pool[go.shape.*spandex/internal/proto.Msg]).Get"}, "sim"},
		// Repository packages without a bucket of their own, and the
		// benchmark itself.
		{[]string{"spandex/internal/proto.(*Msg).String"}, "other_repo"},
		{[]string{"time.Now", "main.(*tracer).begin"}, "other_repo"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm"}, "runtime.other"},
		{nil, "runtime.other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%q) = %s, want %s", c.frames, got, c.want)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for _, c := range [][2]string{
		{"spandex/internal/sim.(*Engine).RunUntil", "spandex/internal/sim"},
		{"spandex/internal/sim.New", "spandex/internal/sim"},
		{"spandex.Run", "spandex"},
		{"spandex.(*System).Attach.func1", "spandex"},
		{"main.main", "main"},
		{"iter.Pull[...].func2", "iter"},
		{"spandex/internal/sim.(*Pool[go.shape.*spandex/internal/x.T]).Get", "spandex/internal/sim"},
		{"runtime.mallocgc", "runtime"},
	} {
		if got := funcPackage(c[0]); got != c[1] {
			t.Errorf("funcPackage(%q) = %q, want %q", c[0], got, c[1])
		}
	}
}

// Minimal protocol buffer encoding, enough to build a canned profile.
func pbVarint(b []byte, field int, v uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(field)<<3), v)
}

func pbBytes(b []byte, field int, data []byte) []byte {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	return append(binary.AppendUvarint(b, uint64(len(data))), data...)
}

func pbPacked(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// cannedProfile encodes a profile with inlined frames and both packed and
// unpacked repeated fields, gzipped as runtime/pprof writes it.
func cannedProfile(t *testing.T) []byte {
	// Function id i is named by string i+4.
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.mallocgc",
		"spandex/internal/mesi.(*L1).Access",
		"spandex/internal/sim.(*Engine).RunUntil",
		"runtime.gcBgMarkWorker",
		"runtime.coroswitch",
		"spandex/internal/workload.(*coroStream).Next",
		"main.main",
		"runtime.futex",
	}
	var p []byte
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		p = pbBytes(p, 1, pbVarint(pbVarint(nil, 1, vt[0]), 2, vt[1]))
	}
	samples := []struct {
		locs  []uint64
		count uint64
	}{
		{[]uint64{1, 2}, 3},    // mallocgc <- mesi.Access (inlined) <- sim.RunUntil
		{[]uint64{3}, 2},       // GC worker, unpacked location id
		{[]uint64{4, 5, 2}, 4}, // coroutine switch under repository frames
		{[]uint64{7}, 1},       // runtime only
		{[]uint64{7, 6}, 1},    // runtime under the benchmark's main
	}
	for _, s := range samples {
		var m []byte
		if len(s.locs) == 1 {
			m = pbVarint(m, 1, s.locs[0])
		} else {
			m = pbBytes(m, 1, pbPacked(s.locs...))
		}
		m = pbBytes(m, 2, pbPacked(s.count, s.count*10_000_000))
		p = pbBytes(p, 2, m)
	}
	// Location id -> function ids. Location 2 holds two lines: the
	// inlined callee first.
	locFuncs := map[uint64][]uint64{1: {1}, 2: {2, 3}, 3: {4}, 4: {5}, 5: {6}, 6: {7}, 7: {8}}
	for id := uint64(1); id <= 7; id++ {
		m := pbVarint(nil, 1, id)
		for _, fn := range locFuncs[id] {
			m = pbBytes(m, 4, pbVarint(pbVarint(nil, 1, fn), 2, 42))
		}
		p = pbBytes(p, 4, m)
	}
	for id := uint64(1); id <= 8; id++ {
		p = pbBytes(p, 5, pbVarint(pbVarint(nil, 1, id), 2, id+4))
	}
	for _, s := range strs {
		p = pbBytes(p, 6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCannedProfile(t *testing.T) {
	stacks, err := parseProfile(cannedProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	want := []stack{
		{[]string{"runtime.mallocgc", "spandex/internal/mesi.(*L1).Access", "spandex/internal/sim.(*Engine).RunUntil"}, 3},
		{[]string{"runtime.gcBgMarkWorker"}, 2},
		{[]string{"runtime.coroswitch", "spandex/internal/workload.(*coroStream).Next",
			"spandex/internal/mesi.(*L1).Access", "spandex/internal/sim.(*Engine).RunUntil"}, 4},
		{[]string{"runtime.futex"}, 1},
		{[]string{"runtime.futex", "main.main"}, 1},
	}
	if len(stacks) != len(want) {
		t.Fatalf("got %d stacks, want %d", len(stacks), len(want))
	}
	for i := range want {
		if !slices.Equal(stacks[i].frames, want[i].frames) || stacks[i].n != want[i].n {
			t.Errorf("stack %d = %v, want %v", i, stacks[i], want[i])
		}
	}

	var p cpuProfile
	p.add(stacks)
	shares := p.shares()
	for name, n := range map[string]float64{
		"cpu.mesi_share": 3, "cpu.runtime.gc_share": 2, "cpu.runtime.coro_share": 4,
		"cpu.runtime.other_share": 1, "cpu.other_repo_share": 1, "cpu.alloc_share": 3,
		"cpu.sim_share": 0, "cpu.workload_share": 0,
	} {
		if got := shares[name]; got != n/11 {
			t.Errorf("%s = %v, want %v", name, got, n/11)
		}
	}
	if len(shares) != len(cpuBuckets)+1 {
		t.Errorf("got %d shares, want every bucket plus alloc", len(shares))
	}
}

func TestRuntimeProfileParses(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	x := uint64(1)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x = x*6364136223846793005 + 1442695040888963407
	}
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stacks {
		if len(s.frames) == 0 || s.n <= 0 {
			t.Fatalf("malformed stack %v (x=%d)", s, x)
		}
	}
	if len(stacks) == 0 {
		t.Fatal("no samples in 300ms of CPU work")
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer(1)
	tr.startUnit(0)
	tr.begin(spanSystemRun)
	tr.begin(spanWorkloadNext)
	time.Sleep(2 * time.Millisecond)
	tr.end()
	tr.begin(spanL1Access)
	tr.begin(spanWorkloadNext) // re-entered from a completion callback
	tr.end()
	tr.end()
	tr.end()
	a := tr.units[0]
	if a[spanWorkloadNext].Calls != 2 || a[spanL1Access].Calls != 1 || a[spanSystemRun].Calls != 1 {
		t.Fatalf("calls: %+v", a)
	}
	run := a[spanSystemRun]
	if want := run.Total - a[spanWorkloadNext].Total - a[spanL1Access].Self; run.Self != want {
		t.Errorf("system_run self = %v, want total minus children = %v", run.Self, want)
	}
	if l1 := a[spanL1Access]; l1.Self > l1.Total {
		t.Errorf("l1 self %v exceeds total %v", l1.Self, l1.Total)
	}
}

type plainL1 struct{ device.L1Cache }

type regionL1 struct{ plainL1 }

func (regionL1) SelfInvalidateRegion(lo, hi device.Addr) {}

// The L1 wrapper must expose region invalidation exactly when the wrapped
// cache does: devices type-assert for it.
func TestWrapL1KeepsRegionInterface(t *testing.T) {
	tr := newTracer(1)
	if _, ok := tr.wrapL1(plainL1{}).(device.RegionInvalidator); ok {
		t.Error("wrapper of a cache without regions claims region support")
	}
	if _, ok := tr.wrapL1(regionL1{}).(device.RegionInvalidator); !ok {
		t.Error("wrapper hides the cache's region support")
	}
}

// BENCHMARK.json must declare exactly the metrics the command prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for i, w := range b.Workloads {
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json has %q", i, w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the command prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
