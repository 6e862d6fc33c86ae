package obs

import (
	"bytes"
	"encoding/csv"
	"sort"
	"strings"
	"testing"

	"spandex/internal/memaddr"
	"spandex/internal/proto"
	"spandex/internal/sim"
)

func TestTSeriesBucketsAndRescale(t *testing.T) {
	s := &tseries{width: 16, maxBkts: 4} // 4 buckets of 16 ticks
	s.add(0, 1)
	s.add(17, 2)
	s.add(63, 3)
	if len(s.buckets) != 4 || s.width != 16 {
		t.Fatalf("pre-rescale shape: %d buckets width %d", len(s.buckets), s.width)
	}
	// A sample past the cap rescales: pairs merge, width doubles.
	s.add(64, 4) // idx 4 at width 16 → rescale once → idx 2 at width 32
	if s.width != 32 {
		t.Fatalf("width after rescale = %d, want 32", s.width)
	}
	ts := s.export()
	if ts.Total() != 1+2+3+4 {
		t.Errorf("total = %d, want 10 (rescale must preserve sums)", ts.Total())
	}
	// Bucket 0 now covers [0,32): samples 1 and 2. Bucket 1 covers [32,64):
	// sample 3. Bucket 2 covers [64,96): sample 4.
	want := map[int]SeriesBucket{
		0: {Sum: 3, Count: 2, Max: 2},
		1: {Sum: 3, Count: 1, Max: 3},
		2: {Sum: 4, Count: 1, Max: 4},
	}
	if len(ts.Points) != len(want) {
		t.Fatalf("points = %+v", ts.Points)
	}
	for _, p := range ts.Points {
		if w, ok := want[p.Index]; !ok || p.SeriesBucket != w {
			t.Errorf("bucket %d = %+v, want %+v", p.Index, p.SeriesBucket, want[p.Index])
		}
	}
}

func TestTSeriesDistantSampleRescalesRepeatedly(t *testing.T) {
	s := &tseries{width: 16, maxBkts: 4}
	s.add(3, 5)
	s.add(16*4*1000, 7) // forces ~10 doublings
	if got := s.export().Total(); got != 12 {
		t.Errorf("total = %d, want 12", got)
	}
	if s.width <= 16 || s.width&(s.width-1) != 0 {
		t.Errorf("width %d must be a power-of-two multiple of the initial width", s.width)
	}
	if len(s.buckets) > 4 {
		t.Errorf("bucket count %d exceeds cap 4", len(s.buckets))
	}
}

// TestTSeriesDeterminism: identical sample streams produce identical
// exports — the rescale schedule is a pure function of sample times.
func TestTSeriesDeterminism(t *testing.T) {
	build := func() TimeSeries {
		s := &tseries{width: 16, maxBkts: 8}
		for i := 0; i < 10000; i++ {
			s.add(sim.Time(i*37), uint64(i%11))
		}
		return s.export()
	}
	a, b := build(), build()
	if a.Width != b.Width || len(a.Points) != len(b.Points) {
		t.Fatalf("shapes differ: %d/%d vs %d/%d", a.Width, len(a.Points), b.Width, len(b.Points))
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, a.Points[i], b.Points[i])
		}
	}
}

// touch registers a line-request delivery at an LLC node, the event that
// feeds the per-line history table.
func touch(m *Metrics, line uint64, at sim.Time) {
	msg := &proto.Message{Type: proto.ReqV, Line: memaddr.LineAddr(line), Requestor: 1}
	m.observe(Event{At: at, Kind: EvMsgDeliver, Node: 9, Msg: msg})
}

// newTestMetrics returns a registry whose only LLC node is 9.
func newTestMetrics() *Metrics {
	return newMetrics(map[proto.NodeID]bool{9: true})
}

func TestLineTableLRUCap(t *testing.T) {
	m := newTestMetrics()
	m.lineCap = 2
	touch(m, 0, 1)
	touch(m, 64, 2)
	touch(m, 0, 3)   // line 0 most recent
	touch(m, 128, 4) // evicts line 64 (LRU), not line 0
	if len(m.lines) != 2 {
		t.Fatalf("table size %d, want 2", len(m.lines))
	}
	if _, ok := m.lines[64]; ok {
		t.Error("line 64 should have aged out")
	}
	if _, ok := m.lines[0]; !ok {
		t.Error("line 0 (recently touched) should survive")
	}
	if m.linesEvicted != 1 {
		t.Errorf("linesEvicted = %d, want 1", m.linesEvicted)
	}
	rep := m.Report()
	if rep.LinesAgedOut != 1 {
		t.Errorf("report LinesAgedOut = %d, want 1", rep.LinesAgedOut)
	}
}

func TestLineHistoryCounts(t *testing.T) {
	m := newTestMetrics()
	touch(m, 64, 1)
	touch(m, 64, 2)
	m.observe(Event{At: 3, Kind: EvLineOwner, Node: 9, Addr: 64, Arg: 4})
	m.observe(Event{At: 4, Kind: EvLineSharer, Node: 9, Addr: 64, Arg: 2})
	m.observe(Event{At: 5, Kind: EvLLCRevoke, Node: 9, Addr: 64, Arg: 3})
	rep := m.Report()
	if len(rep.Lines) != 1 {
		t.Fatalf("lines: %+v", rep.Lines)
	}
	l := rep.Lines[0]
	if l.Line != 64 || l.Access != 2 || l.OwnerMoves != 4 || l.SharerChurn != 2 || l.Revokes != 3 {
		t.Errorf("history = %+v", l)
	}
	if l.Contention() != 4+2+3 {
		t.Errorf("contention = %d", l.Contention())
	}
	if l.Mix["ReqV"] != 2 {
		t.Errorf("mix = %v", l.Mix)
	}
	if l.RequestorCount() != 1 || l.RequestorSet != 1<<1 {
		t.Errorf("requestors = %#x", l.RequestorSet)
	}
}

// TestReportOrdering: map-backed aggregates must export in sorted key
// order regardless of insertion order.
func TestReportOrdering(t *testing.T) {
	m := newTestMetrics()
	for _, line := range []uint64{64 * 7, 64 * 2, 64 * 9, 64 * 1} {
		touch(m, line, 1)
	}
	m.observe(Event{At: 1, Kind: EvLLCConflict, Node: 9, Addr: 0, Arg: 5})
	m.observe(Event{At: 2, Kind: EvLLCConflict, Node: 9, Addr: 0, Arg: 1})
	m.observe(Event{At: 3, Kind: EvLLCEvict, Node: 9, Addr: 0, Arg: 3})
	rep := m.Report()
	if !sort.SliceIsSorted(rep.Lines, func(i, j int) bool { return rep.Lines[i].Line < rep.Lines[j].Line }) {
		t.Errorf("lines not sorted: %+v", rep.Lines)
	}
	if !sort.SliceIsSorted(rep.Regions, func(i, j int) bool { return rep.Regions[i].Region < rep.Regions[j].Region }) {
		t.Errorf("regions not sorted: %+v", rep.Regions)
	}
	if !sort.SliceIsSorted(rep.LLC.Sets, func(i, j int) bool { return rep.LLC.Sets[i].Set < rep.LLC.Sets[j].Set }) {
		t.Errorf("sets not sorted: %+v", rep.LLC.Sets)
	}
}

func TestTopRankingsDeterministic(t *testing.T) {
	rep := &MetricsReport{
		Lines: []LineMetrics{
			{Line: 192, OwnerMoves: 5},
			{Line: 64, OwnerMoves: 5}, // tie on contention and access → address asc
			{Line: 128, OwnerMoves: 9},
		},
	}
	top := rep.TopLines(2)
	if len(top) != 2 || top[0].Line != 128 || top[1].Line != 64 {
		t.Errorf("top lines: %+v", top)
	}
}

func buildSampleMetrics() *Metrics {
	m := newTestMetrics()
	m.SetNodeName(0, "cpu0")
	m.SetNodeName(9, "llc")
	msg := &proto.Message{Type: proto.ReqV, Line: 64, Src: 0, Dst: 9, Requestor: 0, Mask: 1}
	m.observe(Event{At: 5, Kind: EvMsgSend, Node: 0, Msg: msg, Arg: 100})
	m.observe(Event{At: 5, Kind: EvLinkBacklog, Node: 0, Res: "egress", Arg: 40})
	m.observe(Event{At: 100, Kind: EvMsgDeliver, Node: 9, Msg: msg})
	m.observe(Event{At: 101, Kind: EvOccupancy, Node: 9, Res: "llc.reqq", Arg: 1})
	m.observe(Event{At: 120, Kind: EvLLCConflict, Node: 9, Addr: 64, Arg: 1})
	m.observe(Event{At: 130, Kind: EvLLCEvict, Node: 9, Addr: 64, Arg: 1})
	m.observe(Event{At: 140, Kind: EvDRAMAccess, Node: 10, Res: "rd", Addr: 64, Arg: 64})
	m.observe(Event{At: 150, Kind: EvDRAMAccess, Node: 10, Res: "wr", Addr: 64, Arg: 8})
	return m
}

func TestMetricsExportRoundTrip(t *testing.T) {
	rep := buildSampleMetrics().Report()

	var jsonl bytes.Buffer
	if err := rep.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	counts, err := ValidateMetricsJSONL(bytes.NewReader(jsonl.Bytes()))
	if err != nil {
		t.Fatalf("export fails validation: %v\n%s", err, jsonl.String())
	}
	for _, kind := range []string{"meta", "link", "series", "set", "dram", "row", "line", "region"} {
		if counts[kind] == 0 {
			t.Errorf("export has no %q records", kind)
		}
	}

	var csvBuf bytes.Buffer
	if err := rep.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(bytes.NewReader(csvBuf.Bytes())).ReadAll()
	if err != nil {
		t.Fatalf("CSV does not parse: %v", err)
	}
	if len(records) < 5 {
		t.Fatalf("suspiciously small CSV: %d rows", len(records))
	}
	if got := strings.Join(records[0], ","); got != "record,name,node,res,key,width,sum,count,max" {
		t.Errorf("CSV header = %q", got)
	}
}

func TestValidateMetricsJSONLRejects(t *testing.T) {
	const meta = `{"kind":"meta","bucketTicks":16}` + "\n"
	// err is the expected error text; "" marks a valid export.
	cases := map[string]struct{ in, err string }{
		"not meta first": {`{"kind":"line","line":64}`, "expected meta record first"},
		"unknown kind":   {meta + `{"kind":"bogus"}`, "unknown record kind"},
		"bad width":      {meta + `{"kind":"series","name":"x","width":3}`, "not a power of two"},
		"unaligned line": {meta + `{"kind":"line","line":65,"access":1}`, "not 64-byte aligned"},
		"duplicate meta": {meta + "\n" + meta, "duplicate meta record"},
		"empty":          {``, "no meta record"},
		// Blank lines are not records: meta on physical line 2 is first.
		"leading blank line": {"\n" + meta + `{"kind":"region","region":1,"access":2}`, ""},
	}
	for name, c := range cases {
		_, err := ValidateMetricsJSONL(strings.NewReader(c.in))
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s: valid export rejected: %v", name, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%s: err = %v, want %q", name, err, c.err)
		}
	}
}

func TestMetricsRenderSmoke(t *testing.T) {
	rep := buildSampleMetrics().Report()
	var b strings.Builder
	rep.RenderSummary(&b)
	for _, frag := range []string{"cpu0", "llc.reqq", "dram reads", "regions touched"} {
		if !strings.Contains(b.String(), frag) {
			t.Errorf("summary missing %q:\n%s", frag, b.String())
		}
	}
	b.Reset()
	rep.RenderTimeline(&b, 32)
	if !strings.Contains(b.String(), "cpu0.egress") || !strings.Contains(b.String(), "dram.read") {
		t.Errorf("timeline missing series:\n%s", b.String())
	}
	b.Reset()
	rep.RenderTopLines(&b, 5)
	if !strings.Contains(b.String(), "contention") {
		t.Errorf("top-lines missing header:\n%s", b.String())
	}
	b.Reset()
	rep.RenderHeatmap(&b, 20)
	if !strings.Contains(b.String(), "heatmap") {
		t.Errorf("heatmap missing header:\n%s", b.String())
	}
	b.Reset()
	if err := rep.WriteHeatmapDOT(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "digraph heatmap {") || !strings.Contains(b.String(), "fillcolor") {
		t.Errorf("DOT heatmap malformed:\n%s", b.String())
	}
	b.Reset()
	if err := rep.WriteHeatmapCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "region,address,access") {
		t.Errorf("heatmap CSV malformed:\n%s", b.String())
	}
}

// TestMetricsObserveEveryKind: the registry has no optional collectors.
// One event of every kind lands in its collector, and events that carry
// no message are safe.
func TestMetricsObserveEveryKind(t *testing.T) {
	m := newTestMetrics()
	msg := &proto.Message{Type: proto.ReqV, Line: 64, Requestor: 0}
	for k := EventKind(0); k < numEventKinds; k++ {
		m.observe(Event{At: 1, Kind: k, Node: 9, Msg: msg, Addr: 64, Arg: 1, Res: "egress"})
		m.observe(Event{At: 2, Kind: k, Node: 9, Addr: 64, Arg: 1, Res: "rd"})
	}
	rep := m.Report()
	if len(rep.Links) != 1 || len(rep.Occupancy) != 2 || len(rep.Lines) != 1 || len(rep.Regions) != 1 {
		t.Errorf("links=%d occupancy=%d lines=%d regions=%d, want 1/2/1/1",
			len(rep.Links), len(rep.Occupancy), len(rep.Lines), len(rep.Regions))
	}
	if l := rep.LLC; l.Indirection.Total() != 2 || l.Revocations.Total() != 2 ||
		l.Evictions.Total() != 2 || l.Conflicts.Total() != 2 {
		t.Errorf("llc = %+v", l)
	}
	if d := rep.DRAM; d.Reads != 1 || d.Writes != 1 {
		t.Errorf("dram reads=%d writes=%d, want 1/1", d.Reads, d.Writes)
	}
}
