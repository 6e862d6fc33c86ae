package spandex

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"spandex/internal/detsort"
	"spandex/internal/proto"
	"spandex/internal/stats"
)

// RunSummary is a compact, serializable record of one run's measurements —
// the part of a Result that Fingerprint hashes, plus the identity needed
// to reproduce it. Summaries written to JSONL by one invocation can be
// diffed against a later run (spandex-trace summarize -diff), turning
// "did my change alter behaviour?" into a named-counter answer instead of
// a fingerprint mismatch.
type RunSummary struct {
	Workload    string         `json:"workload"`
	Config      string         `json:"config"`
	Seed        uint64         `json:"seed"`
	Ops         uint64         `json:"ops"`
	MemHash     uint64         `json:"memHash"`
	Fingerprint uint64         `json:"fingerprint"`
	Snapshot    stats.Snapshot `json:"snapshot"`
}

// Summarize captures a Result as a RunSummary. The seed is recorded
// alongside (Result does not carry it) so the summary names the exact
// cell: (workload, config, seed).
func Summarize(res Result, seed uint64) RunSummary {
	return RunSummary{
		Workload:    res.Workload,
		Config:      res.Config,
		Seed:        seed,
		Ops:         res.Ops,
		MemHash:     res.MemHash,
		Fingerprint: res.Fingerprint(),
		Snapshot: stats.Snapshot{
			Traffic:  res.Traffic,
			ExecTime: res.ExecTime,
			Counters: res.Counters,
		},
	}
}

// WriteSummaryJSONL appends each summary as one JSON object per line.
func WriteSummaryJSONL(w io.Writer, sums ...RunSummary) error {
	enc := json.NewEncoder(w)
	for _, s := range sums {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// ReadSummaryJSONL parses a summary JSONL stream, skipping blank lines.
func ReadSummaryJSONL(r io.Reader) ([]RunSummary, error) {
	var out []RunSummary
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var s RunSummary
		if err := json.Unmarshal([]byte(text), &s); err != nil {
			return nil, fmt.Errorf("summary line %d: %w", line, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// MatchSummary picks the summary to diff against: the first entry with the
// same (workload, config, seed), else the same (workload, config), else —
// when the file holds exactly one summary — that one. It returns an error
// naming what was available otherwise, so a mismatched diff never silently
// compares unrelated cells.
func MatchSummary(sums []RunSummary, workload, config string, seed uint64) (RunSummary, error) {
	for _, s := range sums {
		if s.Workload == workload && s.Config == config && s.Seed == seed {
			return s, nil
		}
	}
	for _, s := range sums {
		if s.Workload == workload && s.Config == config {
			return s, nil
		}
	}
	if len(sums) == 1 {
		return sums[0], nil
	}
	var have []string
	for _, s := range sums {
		have = append(have, fmt.Sprintf("%s/%s seed %d", s.Workload, s.Config, s.Seed))
	}
	return RunSummary{}, fmt.Errorf("no summary for %s/%s among %d entries (%s)",
		workload, config, len(sums), strings.Join(have, ", "))
}

// minSnapshot returns the elementwise minimum of two snapshots. Because
// stats.Snapshot.Diff requires prev <= s in every component (counters are
// monotone within one run, but two independent runs are ordered in
// neither direction), diffing both operands against their shared floor
// yields two valid Diff calls whose results read side by side.
func minSnapshot(a, b stats.Snapshot) stats.Snapshot {
	m := stats.Snapshot{ExecTime: a.ExecTime, Counters: make(map[string]uint64)}
	if b.ExecTime < m.ExecTime {
		m.ExecTime = b.ExecTime
	}
	for c := range m.Traffic.Bytes {
		m.Traffic.Bytes[c] = minU64(a.Traffic.Bytes[c], b.Traffic.Bytes[c])
		m.Traffic.Messages[c] = minU64(a.Traffic.Messages[c], b.Traffic.Messages[c])
	}
	//spandex:maprange each key's entry is written from that key alone; order cannot change the map
	for k, av := range a.Counters {
		if bv, ok := b.Counters[k]; ok {
			m.Counters[k] = minU64(av, bv)
		}
		// A counter present in only one run has floor 0: omitted here, so
		// Diff reports its full value on the side that has it.
	}
	return m
}

func minU64(a, b uint64) uint64 {
	if b < a {
		return b
	}
	return a
}

// DiffSummaries renders a measurement-by-measurement comparison of two
// runs, base first. The headline is stats.Snapshot.FirstDiff — the first
// divergent measurement in deterministic order — followed by every
// differing quantity with both values and the signed delta (other - base),
// computed via two stats.Snapshot.Diff calls against the runs' elementwise
// floor. Identical measurements collapse to a one-line confirmation.
func DiffSummaries(base, other RunSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "summary diff: %s/%s seed %d  vs  %s/%s seed %d\n",
		base.Workload, base.Config, base.Seed, other.Workload, other.Config, other.Seed)

	first := base.Snapshot.FirstDiff(other.Snapshot)
	if first == "" && base.Ops == other.Ops && base.MemHash == other.MemHash {
		fmt.Fprintf(&b, "  measurements are bit-identical (fingerprint %#016x)\n", base.Fingerprint)
		return b.String()
	}
	if first != "" {
		fmt.Fprintf(&b, "  first divergence: %s\n", first)
	}

	floor := minSnapshot(base.Snapshot, other.Snapshot)
	da := base.Snapshot.Diff(floor)
	db := other.Snapshot.Diff(floor)

	row := func(name string, av, bv uint64) {
		if av == bv {
			return
		}
		delta := int64(bv) - int64(av)
		fmt.Fprintf(&b, "  %-28s %14d %14d %+12d\n", name, av, bv, delta)
	}
	fmt.Fprintf(&b, "  %-28s %14s %14s %12s\n", "measurement", "base", "other", "delta")
	row("exec time (ticks)", uint64(base.Snapshot.ExecTime), uint64(other.Snapshot.ExecTime))
	for c := proto.Class(0); c < proto.NumClasses; c++ {
		// da/db hold the deltas above the shared floor; rendering
		// floor+delta restores the absolute values without re-deriving them
		// outside Diff.
		row(fmt.Sprintf("%s bytes", c),
			floor.Traffic.Bytes[c]+da.Traffic.Bytes[c],
			floor.Traffic.Bytes[c]+db.Traffic.Bytes[c])
		row(fmt.Sprintf("%s msgs", c),
			floor.Traffic.Messages[c]+da.Traffic.Messages[c],
			floor.Traffic.Messages[c]+db.Traffic.Messages[c])
	}
	names := make(map[string]bool, len(da.Counters)+len(db.Counters))
	for k := range da.Counters {
		names[k] = true
	}
	for k := range db.Counters {
		names[k] = true
	}
	for _, k := range detsort.Keys(names) {
		row(k, floor.Counters[k]+da.Counters[k], floor.Counters[k]+db.Counters[k])
	}
	row("ops", base.Ops, other.Ops)
	if base.MemHash != other.MemHash {
		fmt.Fprintf(&b, "  %-28s %#14x %#14x\n", "memHash", base.MemHash, other.MemHash)
	}
	return b.String()
}
