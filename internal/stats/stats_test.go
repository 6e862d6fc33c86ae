package stats

import (
	"strings"
	"testing"

	"spandex/internal/proto"
)

func TestTrafficAccumulation(t *testing.T) {
	var tr Traffic
	tr.Add(proto.ClassReqV, 80)
	tr.Add(proto.ClassReqV, 16)
	tr.Add(proto.ClassProbe, 18)
	if tr.Bytes[proto.ClassReqV] != 96 || tr.Messages[proto.ClassReqV] != 2 {
		t.Fatalf("ReqV = %d bytes / %d msgs", tr.Bytes[proto.ClassReqV], tr.Messages[proto.ClassReqV])
	}
	if tr.TotalBytes(true) != 114 {
		t.Fatalf("total = %d", tr.TotalBytes(true))
	}
}

func TestTotalBytesExcludesMem(t *testing.T) {
	var tr Traffic
	tr.Add(proto.ClassReqV, 100)
	tr.Add(proto.ClassMem, 1000)
	if tr.TotalBytes(false) != 100 {
		t.Fatalf("excl-mem total = %d", tr.TotalBytes(false))
	}
	if tr.TotalBytes(true) != 1100 {
		t.Fatalf("incl-mem total = %d", tr.TotalBytes(true))
	}
}

func TestCounters(t *testing.T) {
	s := New()
	s.Inc("llc.miss", 3)
	s.Inc("llc.miss", 2)
	s.Inc("tu.probe", 1)
	if s.Get("llc.miss") != 5 || s.Get("tu.probe") != 1 || s.Get("absent") != 0 {
		t.Fatal("counter bookkeeping wrong")
	}
	names := s.CounterNames()
	if len(names) != 2 || names[0] != "llc.miss" || names[1] != "tu.probe" {
		t.Fatalf("names = %v (must be sorted)", names)
	}
}

// A Handle creates its key on its first Inc, exactly as Inc would: a
// counter that never counts must stay out of the fingerprinted key set.
func TestHandleCreatesKeyOnFirstInc(t *testing.T) {
	s := New()
	hit, idle := s.Handle("l1.hit"), s.Handle("l1.idle")
	before := s.Snapshot().Fingerprint()
	if len(s.Counters) != 0 {
		t.Fatalf("handles created keys before counting: %v", s.CounterNames())
	}
	hit.Inc(2)
	s.Inc("l1.hit", 3)
	hit.Inc(1)
	if s.Get("l1.hit") != 6 || len(s.Counters) != 1 {
		t.Fatalf("l1.hit = %d with keys %v, want 6 under one key", s.Get("l1.hit"), s.CounterNames())
	}
	ref := New()
	ref.Inc("l1.hit", 6)
	if got, want := s.Snapshot().Fingerprint(), ref.Snapshot().Fingerprint(); got != want || got == before {
		t.Fatal("handle increments fingerprint differently from Inc")
	}
	idle.Inc(0)
	if _, ok := s.Counters["l1.idle"]; !ok {
		t.Fatal("Inc(0) through a handle must create the key, as Stats.Inc does")
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := New()
	a.ExecTime = 100
	a.Traffic.Add(proto.ClassReqV, 64)
	a.Inc("llc.miss", 3)
	b := New()
	b.ExecTime = 250
	b.Traffic.Add(proto.ClassReqV, 16)
	b.Traffic.Add(proto.ClassProbe, 8)
	b.Inc("llc.miss", 2)
	b.Inc("tu.nack", 1)

	m := a.Snapshot().Merge(b.Snapshot())
	if m.Traffic.Bytes[proto.ClassReqV] != 80 || m.Traffic.Messages[proto.ClassReqV] != 2 {
		t.Fatalf("merged ReqV = %d bytes / %d msgs", m.Traffic.Bytes[proto.ClassReqV], m.Traffic.Messages[proto.ClassReqV])
	}
	if m.Traffic.Bytes[proto.ClassProbe] != 8 {
		t.Fatalf("merged Probe = %d bytes", m.Traffic.Bytes[proto.ClassProbe])
	}
	if m.ExecTime != 250 {
		t.Fatalf("merged ExecTime = %d, want max 250", m.ExecTime)
	}
	if m.Counters["llc.miss"] != 5 || m.Counters["tu.nack"] != 1 {
		t.Fatalf("merged counters = %v", m.Counters)
	}
	// Merge must not mutate its operands.
	if a.Snapshot().Counters["llc.miss"] != 3 || b.Snapshot().Counters["llc.miss"] != 2 {
		t.Fatal("Merge mutated an operand")
	}
}

func TestSnapshotFingerprint(t *testing.T) {
	s := New()
	s.ExecTime = 42
	s.Traffic.Add(proto.ClassReqO, 128)
	s.Inc("llc.miss", 1)
	fp := s.Snapshot().Fingerprint()
	if fp != s.Snapshot().Fingerprint() {
		t.Fatal("fingerprint not stable")
	}
	s.Inc("llc.miss", 1)
	if fp == s.Snapshot().Fingerprint() {
		t.Fatal("fingerprint insensitive to counter change")
	}
	s2 := New()
	s2.ExecTime = 42
	s2.Traffic.Add(proto.ClassReqO, 128)
	s2.Inc("llc.miss", 1)
	if fp != s2.Snapshot().Fingerprint() {
		t.Fatal("equal measurements fingerprint differently")
	}
}

func TestCounterNamesDeterministic(t *testing.T) {
	// Same counters incremented in different orders must yield identical
	// CounterNames, Summary bytes and fingerprints — the ordering contract
	// golden files and determinism verification rely on.
	keys := []string{"tu.probe", "llc.miss", "dnl1.hit", "gpul1.wt", "llc.blocked"}
	a, b := New(), New()
	for i, k := range keys {
		a.Inc(k, uint64(i+1))
	}
	for i := len(keys) - 1; i >= 0; i-- {
		b.Inc(keys[i], uint64(i+1))
	}
	na, nb := a.CounterNames(), b.CounterNames()
	if len(na) != len(keys) {
		t.Fatalf("len = %d", len(na))
	}
	for i := range na {
		if na[i] != nb[i] {
			t.Fatalf("order differs: %v vs %v", na, nb)
		}
		if i > 0 && na[i-1] >= na[i] {
			t.Fatalf("not strictly ascending: %v", na)
		}
	}
	if a.Summary() != b.Summary() {
		t.Fatal("Summary not deterministic across insertion orders")
	}
	if a.Snapshot().Fingerprint() != b.Snapshot().Fingerprint() {
		t.Fatal("Fingerprint not deterministic across insertion orders")
	}
}

func TestSnapshotDiff(t *testing.T) {
	s := New()
	s.ExecTime = 100
	s.Traffic.Add(proto.ClassReqV, 64)
	s.Inc("llc.miss", 3)
	s.Inc("tu.probe", 2)
	before := s.Snapshot()

	s.ExecTime = 400
	s.Traffic.Add(proto.ClassReqV, 16)
	s.Traffic.Add(proto.ClassProbe, 8)
	s.Inc("llc.miss", 4)
	s.Inc("llc.evict", 1)
	d := s.Snapshot().Diff(before)

	if d.ExecTime != 400 {
		t.Fatalf("ExecTime = %d", d.ExecTime)
	}
	if d.Traffic.Bytes[proto.ClassReqV] != 16 || d.Traffic.Messages[proto.ClassReqV] != 1 {
		t.Fatalf("ReqV delta = %d bytes / %d msgs",
			d.Traffic.Bytes[proto.ClassReqV], d.Traffic.Messages[proto.ClassReqV])
	}
	if d.Traffic.Bytes[proto.ClassProbe] != 8 {
		t.Fatalf("Probe delta = %d bytes", d.Traffic.Bytes[proto.ClassProbe])
	}
	if d.Counters["llc.miss"] != 4 || d.Counters["llc.evict"] != 1 {
		t.Fatalf("counter deltas = %v", d.Counters)
	}
	if _, ok := d.Counters["tu.probe"]; ok {
		t.Fatal("zero-delta counter not omitted")
	}
	// Diff must not mutate its operands.
	if before.Counters["llc.miss"] != 3 || s.Snapshot().Counters["llc.miss"] != 7 {
		t.Fatal("Diff mutated an operand")
	}
}

func TestSummaryRendering(t *testing.T) {
	s := New()
	s.ExecTime = 2_000_000 // 2 µs
	s.Traffic.Add(proto.ClassReqO, 4096)
	s.Inc("llc.forwards", 7)
	out := s.Summary()
	for _, frag := range []string{"exec time", "ReqO", "4096", "llc.forwards", "7"} {
		if !strings.Contains(out, frag) {
			t.Errorf("summary missing %q:\n%s", frag, out)
		}
	}
}

func TestFirstDiff(t *testing.T) {
	base := func() Snapshot {
		return Snapshot{ExecTime: 100,
			Counters: map[string]uint64{"llc.hit": 5, "tu.nack": 2, "a.first": 1}}
	}

	if d := base().FirstDiff(base()); d != "" {
		t.Fatalf("identical snapshots diff: %q", d)
	}

	a, b := base(), base()
	b.ExecTime = 200
	if d := a.FirstDiff(b); !strings.Contains(d, "exec time") {
		t.Errorf("exec-time diff reported as %q", d)
	}

	a, b = base(), base()
	b.Traffic.Add(proto.ClassReqV, 64)
	if d := a.FirstDiff(b); !strings.Contains(d, "traffic") {
		t.Errorf("traffic diff reported as %q", d)
	}

	// Two divergent counters: the lexicographically first must be named,
	// regardless of map iteration order.
	a, b = base(), base()
	b.Counters["llc.hit"] = 9
	b.Counters["tu.nack"] = 9
	for i := 0; i < 20; i++ {
		if d := a.FirstDiff(b); !strings.Contains(d, `"llc.hit"`) {
			t.Fatalf("first divergent counter reported as %q, want llc.hit", d)
		}
	}

	// A counter present on only one side still diffs (zero vs value).
	a, b = base(), base()
	b.Counters["b.extra"] = 1
	if d := a.FirstDiff(b); !strings.Contains(d, `"b.extra"`) {
		t.Errorf("one-sided counter reported as %q", d)
	}
}
