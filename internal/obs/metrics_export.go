package obs

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"spandex/internal/memaddr"
)

// metricsRecord is the wire form of one metrics JSONL line. Kind selects
// which fields are meaningful:
//
//	meta    — bucketTicks, linesAgedOut, names (always the first line)
//	link    — node, msgs, bytes
//	series  — name, node, res, width, points
//	set     — set, conflicts, evictions
//	dram    — reads, writes, readBytes, writeBytes
//	row     — row, reads, writes
//	line    — the LineMetrics fields
//	region  — region, access
type metricsRecord struct {
	Kind string `json:"kind"`

	BucketTicks  uint64         `json:"bucketTicks,omitempty"`
	LinesAgedOut uint64         `json:"linesAgedOut,omitempty"`
	Names        map[int]string `json:"names,omitempty"`

	Name   string        `json:"name,omitempty"`
	Node   int           `json:"node,omitempty"`
	Res    string        `json:"res,omitempty"`
	Width  uint64        `json:"width,omitempty"`
	Points []SeriesPoint `json:"points,omitempty"`

	Msgs  uint64 `json:"msgs,omitempty"`
	Bytes uint64 `json:"bytes,omitempty"`

	Set       int    `json:"set,omitempty"`
	Conflicts uint64 `json:"conflicts,omitempty"`
	Evictions uint64 `json:"evictions,omitempty"`

	Reads      uint64 `json:"reads,omitempty"`
	Writes     uint64 `json:"writes,omitempty"`
	ReadBytes  uint64 `json:"readBytes,omitempty"`
	WriteBytes uint64 `json:"writeBytes,omitempty"`
	Row        uint64 `json:"row,omitempty"`

	Line         uint64            `json:"line,omitempty"`
	Access       uint64            `json:"access,omitempty"`
	Mix          map[string]uint64 `json:"mix,omitempty"`
	SharerChurn  uint64            `json:"sharerChurn,omitempty"`
	OwnerMoves   uint64            `json:"ownerMoves,omitempty"`
	Revokes      uint64            `json:"revokes,omitempty"`
	Forwards     uint64            `json:"forwards,omitempty"`
	RequestorSet uint64            `json:"requestors,omitempty"`

	Region uint64 `json:"region,omitempty"`
}

// metricsKinds is the closed set of JSONL record kinds; validation
// rejects anything else.
var metricsKinds = map[string]bool{
	"meta": true, "link": true, "series": true, "set": true,
	"dram": true, "row": true, "line": true, "region": true,
}

// WriteJSONL streams the report as one JSON object per line: a leading
// meta record, then links, series, sets, DRAM totals, rows, lines and
// regions — each in the report's (sorted, deterministic) order.
func (r *MetricsReport) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	emit := func(rec metricsRecord) error { return enc.Encode(rec) }

	if err := emit(metricsRecord{Kind: "meta", BucketTicks: r.BucketTicks,
		LinesAgedOut: r.LinesAgedOut, Names: r.Names}); err != nil {
		return err
	}
	series := func(name string, node int, res string, s TimeSeries) error {
		return emit(metricsRecord{Kind: "series", Name: name, Node: node,
			Res: res, Width: s.Width, Points: s.Points})
	}
	for _, l := range r.Links {
		if err := emit(metricsRecord{Kind: "link", Node: l.Node,
			Msgs: l.Msgs, Bytes: l.Bytes}); err != nil {
			return err
		}
		for _, s := range []struct {
			name string
			ts   TimeSeries
		}{
			{"link.egress", l.Egress},
			{"link.egressBacklog", l.EgressBacklog},
			{"link.ingressBacklog", l.IngressBacklog},
		} {
			if err := series(s.name, l.Node, "", s.ts); err != nil {
				return err
			}
		}
	}
	for _, o := range r.Occupancy {
		if err := series("occ", o.Node, o.Res, o.Series); err != nil {
			return err
		}
	}
	if r.LLC != nil {
		for _, s := range []struct {
			name string
			ts   TimeSeries
		}{
			{"llc.indirection", r.LLC.Indirection},
			{"llc.revocations", r.LLC.Revocations},
			{"llc.evictions", r.LLC.Evictions},
			{"llc.conflicts", r.LLC.Conflicts},
		} {
			if err := series(s.name, 0, "", s.ts); err != nil {
				return err
			}
		}
		for _, s := range r.LLC.Sets {
			if err := emit(metricsRecord{Kind: "set", Set: s.Set,
				Conflicts: s.Conflicts, Evictions: s.Evictions}); err != nil {
				return err
			}
		}
	}
	if r.DRAM != nil {
		if err := emit(metricsRecord{Kind: "dram",
			Reads: r.DRAM.Reads, Writes: r.DRAM.Writes,
			ReadBytes: r.DRAM.ReadBytes, WriteBytes: r.DRAM.WriteBytes}); err != nil {
			return err
		}
		if err := series("dram.read", 0, "", r.DRAM.Read); err != nil {
			return err
		}
		if err := series("dram.write", 0, "", r.DRAM.Write); err != nil {
			return err
		}
		for _, row := range r.DRAM.Rows {
			if err := emit(metricsRecord{Kind: "row", Row: row.Row,
				Reads: row.Reads, Writes: row.Writes}); err != nil {
				return err
			}
		}
	}
	for _, l := range r.Lines {
		if err := emit(metricsRecord{Kind: "line", Line: l.Line,
			Access: l.Access, Mix: l.Mix, SharerChurn: l.SharerChurn,
			OwnerMoves: l.OwnerMoves, Revokes: l.Revokes,
			Forwards: l.Forwards, RequestorSet: l.RequestorSet}); err != nil {
			return err
		}
	}
	for _, rg := range r.Regions {
		if err := emit(metricsRecord{Kind: "region", Region: rg.Region,
			Access: rg.Access}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteCSV writes a flat plotting-friendly CSV. Columns:
//
//	record,name,node,res,key,width,sum,count,max
//
// series rows carry one bucket each (key = bucket index, at = key*width);
// set rows put conflicts in sum and evictions in count; row rows put
// reads in sum and writes in count; line rows put access in sum,
// contention in count and distinct requestors in max; region rows put
// access in sum.
func (r *MetricsReport) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	u := strconv.FormatUint
	row := func(record, name string, node int, res string, key, width, sum, count, max uint64) error {
		return cw.Write([]string{record, name, strconv.Itoa(node), res,
			u(key, 10), u(width, 10), u(sum, 10), u(count, 10), u(max, 10)})
	}
	if err := cw.Write([]string{"record", "name", "node", "res", "key", "width", "sum", "count", "max"}); err != nil {
		return err
	}
	series := func(name string, node int, res string, s TimeSeries) error {
		for _, p := range s.Points {
			if err := row("series", name, node, res, uint64(p.Index), s.Width, p.Sum, p.Count, p.Max); err != nil {
				return err
			}
		}
		return nil
	}
	for _, l := range r.Links {
		if err := row("link", r.NodeName(l.Node), l.Node, "", 0, 0, l.Bytes, l.Msgs, 0); err != nil {
			return err
		}
		if err := series("link.egress", l.Node, "", l.Egress); err != nil {
			return err
		}
		if err := series("link.egressBacklog", l.Node, "", l.EgressBacklog); err != nil {
			return err
		}
		if err := series("link.ingressBacklog", l.Node, "", l.IngressBacklog); err != nil {
			return err
		}
	}
	for _, o := range r.Occupancy {
		if err := series("occ", o.Node, o.Res, o.Series); err != nil {
			return err
		}
	}
	if r.LLC != nil {
		if err := series("llc.indirection", 0, "", r.LLC.Indirection); err != nil {
			return err
		}
		if err := series("llc.revocations", 0, "", r.LLC.Revocations); err != nil {
			return err
		}
		if err := series("llc.evictions", 0, "", r.LLC.Evictions); err != nil {
			return err
		}
		if err := series("llc.conflicts", 0, "", r.LLC.Conflicts); err != nil {
			return err
		}
		for _, s := range r.LLC.Sets {
			if err := row("set", "", 0, "", uint64(s.Set), 0, s.Conflicts, s.Evictions, 0); err != nil {
				return err
			}
		}
	}
	if r.DRAM != nil {
		if err := series("dram.read", 0, "", r.DRAM.Read); err != nil {
			return err
		}
		if err := series("dram.write", 0, "", r.DRAM.Write); err != nil {
			return err
		}
		for _, d := range r.DRAM.Rows {
			if err := row("row", "", 0, "", d.Row, 0, d.Reads, d.Writes, 0); err != nil {
				return err
			}
		}
	}
	for _, l := range r.Lines {
		if err := row("line", "", 0, "", l.Line, 0, l.Access, l.Contention(), uint64(l.RequestorCount())); err != nil {
			return err
		}
	}
	for _, rg := range r.Regions {
		if err := row("region", "", 0, "", rg.Region, 0, rg.Access, 0, 0); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ValidateMetricsJSONL checks a metrics JSONL export: every line parses,
// the first record is meta, every kind is known, series records carry a
// name and a power-of-two width, line records are line-aligned, and
// bucket indices are strictly increasing within each series. It returns
// the record counts per kind for reporting.
func ValidateMetricsJSONL(r io.Reader) (map[string]int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	counts := make(map[string]int)
	n := 0
	for sc.Scan() {
		n++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var rec metricsRecord
		if err := json.Unmarshal(text, &rec); err != nil {
			return counts, fmt.Errorf("line %d: %w", n, err)
		}
		if !metricsKinds[rec.Kind] {
			return counts, fmt.Errorf("line %d: unknown record kind %q", n, rec.Kind)
		}
		// Blank lines are skipped, so the meta rule counts records, not
		// physical lines: no meta seen yet means this is the first record.
		switch seen := counts["meta"] > 0; {
		case !seen && rec.Kind != "meta":
			return counts, fmt.Errorf("line %d: expected meta record first, got %q", n, rec.Kind)
		case seen && rec.Kind == "meta":
			return counts, fmt.Errorf("line %d: duplicate meta record", n)
		}
		switch rec.Kind {
		case "meta":
			if rec.BucketTicks == 0 {
				return counts, fmt.Errorf("line %d: meta record without bucketTicks", n)
			}
		case "series":
			if rec.Name == "" {
				return counts, fmt.Errorf("line %d: series record without name", n)
			}
			if rec.Width == 0 || rec.Width&(rec.Width-1) != 0 {
				return counts, fmt.Errorf("line %d: series %q width %d is not a power of two", n, rec.Name, rec.Width)
			}
			last := -1
			for _, p := range rec.Points {
				if p.Index <= last {
					return counts, fmt.Errorf("line %d: series %q bucket indices not increasing (%d after %d)", n, rec.Name, p.Index, last)
				}
				last = p.Index
			}
		case "line":
			if rec.Line%memaddr.LineBytes != 0 {
				return counts, fmt.Errorf("line %d: line address %#x not %d-byte aligned", n, rec.Line, memaddr.LineBytes)
			}
			var mixSum uint64
			for _, v := range rec.Mix {
				mixSum += v
			}
			if mixSum > rec.Access {
				return counts, fmt.Errorf("line %d: line %#x mix sum %d exceeds access count %d", n, rec.Line, mixSum, rec.Access)
			}
		}
		counts[rec.Kind]++
	}
	if err := sc.Err(); err != nil {
		return counts, err
	}
	if counts["meta"] == 0 {
		return counts, fmt.Errorf("no meta record (empty export?)")
	}
	return counts, nil
}
