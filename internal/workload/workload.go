package workload

import (
	"fmt"
	"sync"

	"spandex/internal/detsort"
	"spandex/internal/device"
	"spandex/internal/memaddr"
)

// Machine describes the simulated machine shape a program is built for.
type Machine struct {
	CPUThreads int // CPU cores used (CTs in Table VII)
	GPUCUs     int
	WarpsPerCU int
	L1Bytes    int
}

// TotalThreads counts every hardware thread context.
func (m Machine) TotalThreads() uint32 {
	return uint32(m.CPUThreads + m.GPUCUs*m.WarpsPerCU)
}

// Meta is the Table VII row describing a workload's communication pattern.
type Meta struct {
	Name    string
	Suite   string // "Synthetic", "Pannotia", "Chai"
	Pattern string // e.g. "data partitioned, fine-grain sync, flat sharing"
	// Partitioning, Synchronization, Sharing, Locality classify the
	// communication pattern as in Table VII.
	Partitioning    string
	Synchronization string
	Sharing         string
	Locality        string
	// Params summarizes the scaled-down execution parameters.
	Params string
}

// WordInit seeds one word of memory before the program starts.
type WordInit struct {
	Addr memaddr.Addr
	Val  uint32
}

// Program is a ready-to-run set of per-thread operation streams plus the
// oracle validating the final memory state.
type Program struct {
	CPU []device.OpStream   // one per CPU core (may contain nils)
	GPU [][]device.OpStream // [cu][warp]

	// Init seeds DRAM before execution (the workload's input data).
	Init []WordInit

	// Validate checks the final memory state; read returns the coherent
	// value of a word after the program drains.
	Validate func(read func(memaddr.Addr) uint32) error
}

// Close releases any coroutine bodies that have not run to completion.
func (p *Program) Close() {
	type closer interface{ Close() }
	for _, s := range p.CPU {
		if c, ok := s.(closer); ok {
			c.Close()
		}
	}
	for _, cu := range p.GPU {
		for _, s := range cu {
			if c, ok := s.(closer); ok {
				c.Close()
			}
		}
	}
}

// Workload builds programs for a machine.
type Workload interface {
	Meta() Meta
	Build(m Machine, seed uint64) *Program
}

// registry is the simulator's only package-level mutable state that runs
// read, besides the sim package's pool of empty calendar wheels (which
// carries no state between runs: an engine returns its wheel only once
// the queue has drained). It is guarded by regMu so concurrent sweep
// cells can resolve workloads while a host program registers custom ones. Workload implementations themselves
// must be stateless under Build (Build may not mutate the receiver): one
// registered Workload value is shared by every concurrent run.
var (
	regMu    sync.RWMutex
	registry = map[string]Workload{}
)

// Register adds a workload to the global registry (usually from init).
// Safe for concurrent use with ByName/Names.
func Register(w Workload) {
	name := w.Meta().Name
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("workload: duplicate registration of " + name)
	}
	registry[name] = w
}

// ByName looks a workload up. Safe for concurrent use.
func ByName(name string) (Workload, error) {
	regMu.RLock()
	w, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q", name)
	}
	return w, nil
}

// Names lists registered workloads, sorted. Safe for concurrent use.
func Names() []string {
	regMu.RLock()
	out := detsort.Keys(registry)
	regMu.RUnlock()
	return out
}

// Microbenchmarks lists the Figure 2 synthetic workloads in paper order.
func Microbenchmarks() []string { return []string{"indirection", "reuseo", "reuses"} }

// Applications lists the Figure 3 collaborative applications in paper order.
func Applications() []string { return []string{"bc", "pr", "hsti", "trns", "rsct", "tqh"} }

// Rand is a deterministic xorshift64* PRNG; all workload randomness flows
// through it so runs are reproducible across platforms.
type Rand struct{ s uint64 }

// NewRand seeds a generator (seed 0 is remapped).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{s: seed}
}

// Uint64 returns the next raw value.
func (r *Rand) Uint64() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// U32 returns the next 32-bit value.
func (r *Rand) U32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a value in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn on non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Layout carves a flat address space into named regions so workloads never
// overlap each other's data or the synchronization block.
type Layout struct{ next memaddr.Addr }

// NewLayout starts allocating at a fixed base, leaving page zero unused.
func NewLayout() *Layout { return &Layout{next: 0x1_0000} }

// Words reserves n words and returns the base address, line-aligned.
func (l *Layout) Words(n int) memaddr.Addr {
	base := l.next
	bytes := memaddr.Addr(n * memaddr.WordBytes)
	l.next += (bytes + memaddr.LineBytes - 1) &^ (memaddr.LineBytes - 1)
	return base
}

// Lines reserves n full lines.
func (l *Layout) Lines(n int) memaddr.Addr {
	return l.Words(n * memaddr.WordsPerLine)
}

// Word returns the address of word i in a region starting at base.
func Word(base memaddr.Addr, i int) memaddr.Addr {
	return base + memaddr.Addr(i*memaddr.WordBytes)
}
