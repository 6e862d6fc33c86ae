package obs

import (
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"spandex/internal/detsort"
	"spandex/internal/proto"
)

// MetricsReport is the exportable form of one run's Metrics registry.
// Every slice is sorted (node id, set index, row address, line address),
// so identical runs produce byte-identical JSON. Like LatencyReport it is
// excluded from Result.Fingerprint: metrics observe, they never perturb.
type MetricsReport struct {
	// BucketTicks is the initial series bucket width; each series carries
	// its own final (possibly rescaled) Width.
	BucketTicks uint64 `json:"bucketTicks"`
	// Links holds one entry per NoC endpoint that sent a message.
	Links []LinkMetrics `json:"links,omitempty"`
	// Occupancy holds the bucketed occupancy series by (node, resource):
	// L1 MSHRs ("mshr"), the LLC transaction table ("llc.txns"), and the
	// LLC request queue ("llc.reqq").
	Occupancy []OccMetrics `json:"occupancy,omitempty"`
	// LLC carries the coherence-point contention telemetry.
	LLC *LLCMetrics `json:"llc,omitempty"`
	// DRAM carries memory bandwidth and row access counts.
	DRAM *DRAMMetrics `json:"dram,omitempty"`
	// Lines is the per-line history table (up to lineTableCap entries);
	// LinesAgedOut counts entries the LRU cap discarded. Regions is the
	// 4 KiB-granular address-space access histogram behind the heatmap.
	Lines        []LineMetrics   `json:"lines,omitempty"`
	LinesAgedOut uint64          `json:"linesAgedOut,omitempty"`
	Regions      []RegionMetrics `json:"regions,omitempty"`
	// Names labels node ids ("cpu0", "llc", "mem") for rendering.
	Names map[int]string `json:"names,omitempty"`
}

// LinkMetrics is one NoC endpoint's telemetry.
type LinkMetrics struct {
	Node  int    `json:"node"`
	Msgs  uint64 `json:"msgs"`
	Bytes uint64 `json:"bytes"`
	// Egress buckets bytes sent per window (utilization = Sum *
	// TicksPerByte / Width). EgressBacklog and IngressBacklog bucket the
	// queuing delay (ticks) messages absorbed at the busy link.
	Egress         TimeSeries `json:"egress"`
	EgressBacklog  TimeSeries `json:"egressBacklog"`
	IngressBacklog TimeSeries `json:"ingressBacklog"`
}

// OccMetrics is one resource's bucketed occupancy series.
type OccMetrics struct {
	Node   int    `json:"node"`
	Res    string `json:"res"`
	Series TimeSeries
}

// LLCMetrics is the coherence point's contention telemetry.
type LLCMetrics struct {
	// Sets lists conflict/eviction counts for every set that saw either.
	Sets []SetMetrics `json:"sets,omitempty"`
	// Indirection buckets owner-forwarded requests per window;
	// Revocations buckets revoked words; Evictions and Conflicts bucket
	// line evictions and full-set allocation stalls.
	Indirection TimeSeries `json:"indirection"`
	Revocations TimeSeries `json:"revocations"`
	Evictions   TimeSeries `json:"evictions"`
	Conflicts   TimeSeries `json:"conflicts"`
}

// SetMetrics is one LLC set's tally.
type SetMetrics struct {
	Set       int    `json:"set"`
	Conflicts uint64 `json:"conflicts"`
	Evictions uint64 `json:"evictions"`
}

// DRAMMetrics is the memory-side telemetry.
type DRAMMetrics struct {
	Reads      uint64 `json:"reads"`
	Writes     uint64 `json:"writes"`
	ReadBytes  uint64 `json:"readBytes"`
	WriteBytes uint64 `json:"writeBytes"`
	// Read/Write bucket data bytes moved per window.
	Read  TimeSeries `json:"read"`
	Write TimeSeries `json:"write"`
	// Rows lists access counts per 2 KiB DRAM row.
	Rows []RowMetrics `json:"rows,omitempty"`
}

// RowMetrics is one DRAM row's access tally.
type RowMetrics struct {
	// Row is the row index (line address >> 11).
	Row    uint64 `json:"row"`
	Reads  uint64 `json:"reads"`
	Writes uint64 `json:"writes"`
}

// LineMetrics is one cache line's history entry.
type LineMetrics struct {
	// Line is the line's byte address.
	Line uint64 `json:"line"`
	// Access counts device requests delivered for the line; Mix splits
	// them by traffic class name (ReqV/ReqS/ReqWT/ReqO/ReqWB/Atomic).
	Access uint64            `json:"access"`
	Mix    map[string]uint64 `json:"mix,omitempty"`
	// SharerChurn sums sharer-set bit flips; OwnerMoves sums words whose
	// ownership moved between devices or back to the LLC; Revokes sums
	// words revoked by RvkO probes; Forwards counts owner-indirection
	// forwards.
	SharerChurn uint64 `json:"sharerChurn,omitempty"`
	OwnerMoves  uint64 `json:"ownerMoves,omitempty"`
	Revokes     uint64 `json:"revokes,omitempty"`
	Forwards    uint64 `json:"forwards,omitempty"`
	// RequestorSet is a bitset of requestor device ids (bit 63 collects
	// any id past 63); LastAt is the last touch time in ticks.
	RequestorSet uint64 `json:"requestors,omitempty"`
	LastAt       uint64 `json:"lastAt,omitempty"`
}

// Contention scores a line's coherence contention: every sharer-set
// flip, ownership move, revoked word and indirection forward counts
// once. It is the default top-N ranking key for "which lines ping-pong".
func (l LineMetrics) Contention() uint64 {
	return l.SharerChurn + l.OwnerMoves + l.Revokes + l.Forwards
}

// RequestorCount returns the number of distinct requestor devices seen.
func (l LineMetrics) RequestorCount() int {
	return bits.OnesCount64(l.RequestorSet)
}

// RegionMetrics is one 4 KiB address-space region's access count.
type RegionMetrics struct {
	// Region is the region index (byte address >> 12).
	Region uint64 `json:"region"`
	Access uint64 `json:"access"`
}

// Report flattens the registry into a MetricsReport. Every map is walked
// in sorted key order, so the report is deterministic.
func (m *Metrics) Report() *MetricsReport {
	rep := &MetricsReport{BucketTicks: seriesWidth}
	if len(m.names) > 0 {
		rep.Names = make(map[int]string, len(m.names))
		for k, v := range m.names {
			rep.Names[k] = v
		}
	}

	for _, id := range detsort.Keys(m.links) {
		l := m.links[id]
		rep.Links = append(rep.Links, LinkMetrics{
			Node: int(id), Msgs: l.msgs, Bytes: l.bytes,
			Egress:         l.egressBytes.export(),
			EgressBacklog:  l.egressBacklog.export(),
			IngressBacklog: l.ingressBacklog.export(),
		})
	}

	occKeys := detsort.KeysFunc(m.occ, func(a, b occKey) int {
		if a.node != b.node {
			return int(a.node) - int(b.node)
		}
		return strings.Compare(a.res, b.res)
	})
	for _, k := range occKeys {
		rep.Occupancy = append(rep.Occupancy, OccMetrics{
			Node: int(k.node), Res: k.res, Series: m.occ[k].export(),
		})
	}

	rep.LLC = &LLCMetrics{
		Indirection: m.indirection.export(),
		Revocations: m.revocations.export(),
		Evictions:   m.evictions.export(),
		Conflicts:   m.conflicts.export(),
	}
	for _, s := range detsort.Keys(m.sets) {
		a := m.sets[s]
		rep.LLC.Sets = append(rep.LLC.Sets, SetMetrics{
			Set: s, Conflicts: a.conflicts, Evictions: a.evictions,
		})
	}

	rep.DRAM = &DRAMMetrics{
		Reads: m.dramReads, Writes: m.dramWrites,
		ReadBytes: m.dramReadBytes, WriteBytes: m.dramWriteBytes,
		Read: m.dramRead.export(), Write: m.dramWrite.export(),
	}
	for _, r := range detsort.Keys(m.rows) {
		a := m.rows[r]
		rep.DRAM.Rows = append(rep.DRAM.Rows, RowMetrics{Row: r, Reads: a.reads, Writes: a.writes})
	}

	for _, line := range detsort.Keys(m.lines) {
		la := m.lines[line]
		lm := LineMetrics{
			Line: uint64(la.line), Access: la.access,
			SharerChurn: la.sharerChurn, OwnerMoves: la.ownerMoves,
			Revokes: la.revokes, Forwards: la.forwards,
			RequestorSet: la.requestors, LastAt: uint64(la.lastAt),
		}
		for c := proto.Class(0); c < proto.NumClasses; c++ {
			if la.mix[c] == 0 {
				continue
			}
			if lm.Mix == nil {
				lm.Mix = make(map[string]uint64, 4)
			}
			lm.Mix[c.String()] = la.mix[c]
		}
		rep.Lines = append(rep.Lines, lm)
	}
	rep.LinesAgedOut = m.linesEvicted
	for _, r := range detsort.Keys(m.regions) {
		rep.Regions = append(rep.Regions, RegionMetrics{Region: r, Access: m.regions[r]})
	}
	return rep
}

// NodeName returns the label for a node id, falling back to "node<N>".
func (r *MetricsReport) NodeName(node int) string {
	if n, ok := r.Names[node]; ok {
		return n
	}
	return "node" + strconv.Itoa(node)
}

// TopLines returns the n most contended lines (Contention desc, then
// access count desc, then address asc — fully deterministic).
func (r *MetricsReport) TopLines(n int) []LineMetrics {
	out := append([]LineMetrics(nil), r.Lines...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if ca, cb := a.Contention(), b.Contention(); ca != cb {
			return ca > cb
		}
		if a.Access != b.Access {
			return a.Access > b.Access
		}
		return a.Line < b.Line
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// TopSets returns the n most conflicted LLC sets (conflicts+evictions
// desc, then set index asc).
func (r *MetricsReport) TopSets(n int) []SetMetrics {
	if r.LLC == nil {
		return nil
	}
	out := append([]SetMetrics(nil), r.LLC.Sets...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if sa, sb := a.Conflicts+a.Evictions, b.Conflicts+b.Evictions; sa != sb {
			return sa > sb
		}
		return a.Set < b.Set
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// TopRows returns the n busiest DRAM rows (reads+writes desc, row asc).
func (r *MetricsReport) TopRows(n int) []RowMetrics {
	if r.DRAM == nil {
		return nil
	}
	out := append([]RowMetrics(nil), r.DRAM.Rows...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if sa, sb := a.Reads+a.Writes, b.Reads+b.Writes; sa != sb {
			return sa > sb
		}
		return a.Row < b.Row
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
