// Package stats collects the measurements the paper reports: execution
// time, network traffic broken down by request class (Figures 2 and 3),
// and supporting protocol counters (blocking cycles, Nacks, cache hits).
package stats

import (
	"fmt"
	"sort"
	"strings"

	"spandex/internal/proto"
	"spandex/internal/sim"
)

// Traffic accumulates bytes and message counts per traffic class.
type Traffic struct {
	Bytes    [proto.NumClasses]uint64
	Messages [proto.NumClasses]uint64
}

// Add records one message of class c with the given payload size.
func (t *Traffic) Add(c proto.Class, bytes int) {
	t.Bytes[c] += uint64(bytes)
	t.Messages[c]++
}

// Merge adds other's bytes and message counts into t.
func (t *Traffic) Merge(other Traffic) {
	for c := range t.Bytes {
		t.Bytes[c] += other.Bytes[c]
		t.Messages[c] += other.Messages[c]
	}
}

// TotalBytes returns total traffic across classes. If includeMem is false,
// DRAM traffic is excluded (the paper reports interconnect traffic between
// caches; memory traffic is broadly similar across configurations).
func (t *Traffic) TotalBytes(includeMem bool) uint64 {
	var sum uint64
	for c := proto.Class(0); c < proto.NumClasses; c++ {
		if !includeMem && c == proto.ClassMem {
			continue
		}
		sum += t.Bytes[c]
	}
	return sum
}

// Stats is the per-run measurement sink shared by every component.
type Stats struct {
	Traffic Traffic

	// ExecTime is the simulated time at which the workload finished.
	ExecTime sim.Time

	// Counters boxes each named counter so Counter can hand out a stable
	// pointer: a Handle increments through it instead of paying a
	// string-map lookup per protocol event.
	Counters map[string]*uint64
}

// New returns an empty Stats.
func New() *Stats {
	return &Stats{Counters: make(map[string]*uint64)}
}

// Reset returns s to the state New returns: no traffic and no counters.
// The map keeps its capacity. A Handle resolved before the reset still
// points at a dropped counter, so a component that holds handles takes
// fresh ones (Stats.Handle) when it resets.
func (s *Stats) Reset() {
	s.Traffic, s.ExecTime = Traffic{}, 0
	clear(s.Counters)
}

// Counter returns a stable pointer to the named counter, creating it at
// zero if needed. Calling it creates the key, so a component must not
// resolve a counter before its first increment (see Handle).
func (s *Stats) Counter(name string) *uint64 {
	if p, ok := s.Counters[name]; ok {
		return p
	}
	p := new(uint64)
	s.Counters[name] = p
	return p
}

// Inc adds n to a named counter (e.g. "llc.blocked", "tu.nack").
func (s *Stats) Inc(name string, n uint64) {
	*s.Counter(name) += n
}

// Handle is a named counter for a hot path. It resolves the counter's map
// slot on its first Inc and increments through the pointer after that, so
// the string-map lookup is paid once per run rather than once per event.
// The key appears in Counters exactly when Stats.Inc would have created
// it: resolving at construction would add zero-valued keys and so change
// every Snapshot fingerprint.
type Handle struct {
	s    *Stats
	name string
	p    *uint64
}

// Handle returns an unresolved handle on the named counter.
func (s *Stats) Handle(name string) Handle { return Handle{s: s, name: name} }

// Inc adds n to the counter, creating it on first use.
func (h *Handle) Inc(n uint64) {
	if h.p == nil {
		h.p = h.s.Counter(h.name)
	}
	*h.p += n
}

// Get returns a named counter's value.
func (s *Stats) Get(name string) uint64 {
	if p, ok := s.Counters[name]; ok {
		return *p
	}
	return 0
}

// CounterNames returns all counter names in ascending lexicographic order.
// The ordering is deterministic — independent of map iteration order and
// of the order counters were first incremented — and is load-bearing:
// Summary renders counters in this order and Snapshot.Fingerprint folds
// them in this order, so two identical runs always produce byte-identical
// summaries and equal fingerprints (see TestCounterNamesDeterministic).
func (s *Stats) CounterNames() []string {
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Snapshot is an immutable, mergeable copy of one run's measurements.
// Concurrent sweep cells each produce a Snapshot from their private Stats;
// snapshots merge associatively into matrix-level aggregates without any
// component ever sharing a live Stats across runs.
type Snapshot struct {
	Traffic  Traffic
	ExecTime sim.Time
	Counters map[string]uint64
}

// Snapshot copies the current measurements into an independent Snapshot.
func (s *Stats) Snapshot() Snapshot {
	c := make(map[string]uint64, len(s.Counters))
	for k, v := range s.Counters {
		c[k] = *v
	}
	return Snapshot{Traffic: s.Traffic, ExecTime: s.ExecTime, Counters: c}
}

// Merge returns the combination of two snapshots: traffic and counters
// sum, ExecTime takes the maximum (the wall of a set of parallel runs).
// Neither operand is mutated.
func (a Snapshot) Merge(b Snapshot) Snapshot {
	out := Snapshot{Traffic: a.Traffic, ExecTime: a.ExecTime,
		Counters: make(map[string]uint64, len(a.Counters)+len(b.Counters))}
	out.Traffic.Merge(b.Traffic)
	if b.ExecTime > out.ExecTime {
		out.ExecTime = b.ExecTime
	}
	for k, v := range a.Counters {
		out.Counters[k] += v
	}
	for k, v := range b.Counters {
		out.Counters[k] += v
	}
	return out
}

// Diff returns the measurements accumulated between prev and s: traffic
// and counters subtract element-wise, ExecTime is s's. Both snapshots must
// come from the same Stats with prev captured earlier — counters only ever
// increase, so the subtraction cannot underflow. Counters whose delta is
// zero are omitted, making the result a compact "what happened in this
// window" record (e.g. around one phase of a workload).
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	out := Snapshot{ExecTime: s.ExecTime,
		Counters: make(map[string]uint64, len(s.Counters))}
	for c := range s.Traffic.Bytes {
		out.Traffic.Bytes[c] = s.Traffic.Bytes[c] - prev.Traffic.Bytes[c]
		out.Traffic.Messages[c] = s.Traffic.Messages[c] - prev.Traffic.Messages[c]
	}
	for k, v := range s.Counters {
		if d := v - prev.Counters[k]; d != 0 {
			out.Counters[k] = d
		}
	}
	return out
}

// FirstDiff names the first measurement on which two snapshots disagree,
// in a fixed deterministic order — execution time, traffic classes in
// proto.Class order, then counters sorted by name — with both values, or
// "" when the snapshots are identical. Fingerprint mismatches should be
// explained with this rather than by printing the raw hashes: the named
// counter is actionable, the hashes are not.
func (s Snapshot) FirstDiff(other Snapshot) string {
	if s.ExecTime != other.ExecTime {
		return fmt.Sprintf("exec time differs: %d vs %d ticks", s.ExecTime, other.ExecTime)
	}
	for c := proto.Class(0); c < proto.NumClasses; c++ {
		if s.Traffic.Bytes[c] != other.Traffic.Bytes[c] || s.Traffic.Messages[c] != other.Traffic.Messages[c] {
			return fmt.Sprintf("%s traffic differs: %d B/%d msgs vs %d B/%d msgs", c,
				s.Traffic.Bytes[c], s.Traffic.Messages[c], other.Traffic.Bytes[c], other.Traffic.Messages[c])
		}
	}
	names := make([]string, 0, len(s.Counters)+len(other.Counters))
	seen := make(map[string]bool, len(s.Counters)+len(other.Counters))
	for k := range s.Counters {
		names, seen[k] = append(names, k), true
	}
	for k := range other.Counters {
		if !seen[k] {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		if s.Counters[k] != other.Counters[k] {
			return fmt.Sprintf("counter %q differs: %d vs %d", k, s.Counters[k], other.Counters[k])
		}
	}
	return ""
}

// FNV-1a 64-bit parameters, used for deterministic fingerprints.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// FNVAdd folds one 64-bit value into an FNV-1a hash, byte by byte.
func FNVAdd(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * fnvPrime
		x >>= 8
	}
	return h
}

// FNVAddString folds a string into an FNV-1a hash.
func FNVAddString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// FNVOffset returns the FNV-1a initial hash state.
func FNVOffset() uint64 { return fnvOffset }

// Fingerprint returns a deterministic FNV-1a hash of the snapshot: exec
// time, the full per-class traffic breakdown, and every counter in sorted
// order. Two runs are bit-identical iff their fingerprints match.
func (s Snapshot) Fingerprint() uint64 {
	h := FNVAdd(fnvOffset, uint64(s.ExecTime))
	for c := range s.Traffic.Bytes {
		h = FNVAdd(h, s.Traffic.Bytes[c])
		h = FNVAdd(h, s.Traffic.Messages[c])
	}
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h = FNVAddString(h, k)
		h = FNVAdd(h, s.Counters[k])
	}
	return h
}

// Summary renders a human-readable report. The output is deterministic:
// traffic classes appear in proto.Class order and counters in
// CounterNames' sorted order, so identical runs yield byte-identical
// summaries (diff-friendly in CI logs and golden files).
func (s *Stats) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "exec time: %.3f us\n", float64(s.ExecTime)/1e6)
	fmt.Fprintf(&b, "network traffic (bytes):\n")
	for c := proto.Class(0); c < proto.NumClasses; c++ {
		if s.Traffic.Bytes[c] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-8s %12d bytes %10d msgs\n",
			c, s.Traffic.Bytes[c], s.Traffic.Messages[c])
	}
	fmt.Fprintf(&b, "  %-8s %12d bytes (excl. mem)\n", "total", s.Traffic.TotalBytes(false))
	for _, k := range s.CounterNames() {
		fmt.Fprintf(&b, "  %-28s %12d\n", k, s.Get(k))
	}
	return b.String()
}
