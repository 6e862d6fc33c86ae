// Package conform implements differential conformance fuzzing for the
// six cache configurations: a seeded generator of data-race-free programs
// over the workload API, an oracle that runs each program on every
// configuration and requires observationally identical behaviour, and a
// delta-debugging shrinker that reduces a failing program to a minimal
// reproducer.
//
// The paper's central claim (§III-E) is that very different device
// coherence strategies integrate under one Spandex LLC while preserving
// SC-for-DRF semantics. For data-race-free programs that claim has a sharp
// observational consequence: every configuration must produce the same
// per-thread sequence of loaded values and the same final memory image.
// Programs here are race-free by construction (the region discipline
// below), so any divergence between configurations is a protocol bug, not
// a test bug — and a failure shared identically by all six configurations
// is a bug in the conformance model itself, which the oracle classifies
// separately.
//
// # Region discipline
//
// A Case carves the address space into four region kinds and restricts
// which thread may touch which words in which barrier-delimited phase:
//
//   - private: one region per thread; only that thread loads or stores it.
//   - ro: read-only data seeded before execution; any thread may load it,
//     nobody stores.
//   - chunk: ownership-migrating regions. In each phase a chunk is either
//     owned by exactly one thread (only the owner loads/stores it) or
//     read-shared (any thread loads, nobody stores). Ownership moves
//     between phases, including across the CPU/GPU boundary — the
//     request-granularity × strategy interactions the fuzzer targets.
//   - atomic: words touched only through atomics, restricted to
//     commutative updates (fetch-add), so the final value is deterministic
//     while per-op return values — which legitimately depend on timing —
//     stay out of the comparison.
//
// All threads join a global sense-reversing barrier between phases; its
// release/acquire semantics order cross-phase accesses, so every plain
// load has exactly one visible writer and the program is DRF.
package conform

import (
	"encoding/json"
	"fmt"
)

// OpKind is the kind of one conformance-program operation.
type OpKind string

// Operation kinds. Loads append their observed value to the thread's
// observation log; the other kinds log nothing.
const (
	OpLoad     OpKind = "load"
	OpStore    OpKind = "store"
	OpFetchAdd OpKind = "fetchadd"
	OpFence    OpKind = "fence"
	OpCompute  OpKind = "compute"
)

// RegionKind names the region an operation targets.
type RegionKind string

// Region kinds (see the package comment for the access discipline).
const (
	RegPrivate RegionKind = "private"
	RegRO      RegionKind = "ro"
	RegChunk   RegionKind = "chunk"
	RegAtomic  RegionKind = "atomic"
)

// ReadShared marks a chunk as read-shared for a phase in Case.Owner: any
// thread may load it, no thread may store it.
const ReadShared = -1

// Op is one operation of a thread's per-phase program.
type Op struct {
	Kind OpKind `json:"kind"`
	// Region, Chunk and Word locate the target for load/store/fetchadd:
	// Chunk selects the chunk for RegChunk (ignored otherwise), Word
	// indexes a word within the region (within the chunk for RegChunk).
	Region RegionKind `json:"region,omitempty"`
	Chunk  int        `json:"chunk,omitempty"`
	Word   int        `json:"word,omitempty"`
	// Val is the store value, the fetch-add delta, or the compute cycle
	// count. Fences ignore it.
	Val uint32 `json:"val,omitempty"`
}

// ThreadCase is one thread's placement and per-phase programs.
type ThreadCase struct {
	// OnGPU places the thread on a GPU compute unit instead of a CPU core,
	// so it runs under the configuration's GPU L1 protocol.
	OnGPU bool `json:"on_gpu,omitempty"`
	// Ops[p] is the thread's program for phase p; len(Ops) == Case.Phases.
	Ops [][]Op `json:"ops"`
}

// Case is one self-contained conformance program: explicit per-thread,
// per-phase operation lists plus the region geometry and ownership
// schedule. It is independent of the generator that produced it, so it
// serializes to JSON, replays deterministically, and shrinks structurally.
type Case struct {
	// Name labels the case in reports and emitted reproducers.
	Name string `json:"name,omitempty"`
	// Seed records the generator seed the case came from (provenance only;
	// replay never re-derives anything from it).
	Seed uint64 `json:"seed,omitempty"`
	// Pressure and Banks name the machine the case was fuzzed on, as
	// spandex-fuzz's -pressure and -banks flags set it (MachineOpts maps
	// them to RunOpts), so a replay runs where the failure happened. Both
	// are omitted for the default FastParams machine.
	Pressure bool `json:"pressure,omitempty"`
	Banks    int  `json:"banks,omitempty"`

	// Phases is the number of barrier-delimited phases.
	Phases int `json:"phases"`

	// Region geometry, in words.
	PrivateWords int `json:"private_words"`
	ROWords      int `json:"ro_words"`
	Chunks       int `json:"chunks"`
	ChunkWords   int `json:"chunk_words"`
	AtomicWords  int `json:"atomic_words"`

	// Owner[p][k] is the thread owning chunk k during phase p, or
	// ReadShared (-1) when the chunk is read-shared for that phase.
	Owner [][]int `json:"owner"`

	Threads []ThreadCase `json:"threads"`
}

// Clone returns a deep copy.
func (c *Case) Clone() *Case {
	out := *c
	out.Owner = make([][]int, len(c.Owner))
	for p, row := range c.Owner {
		out.Owner[p] = append([]int(nil), row...)
	}
	out.Threads = make([]ThreadCase, len(c.Threads))
	for t, th := range c.Threads {
		nt := ThreadCase{OnGPU: th.OnGPU, Ops: make([][]Op, len(th.Ops))}
		for p, ops := range th.Ops {
			nt.Ops[p] = append([]Op(nil), ops...)
		}
		out.Threads[t] = nt
	}
	return &out
}

// NumOps counts every operation across all threads and phases (the size
// measure the shrinker minimizes; barrier waits are implicit and uncounted).
func (c *Case) NumOps() int {
	n := 0
	for _, th := range c.Threads {
		for _, ops := range th.Ops {
			n += len(ops)
		}
	}
	return n
}

// Validate checks the case is well-formed and obeys the race-freedom
// discipline: region indices in range, the ownership schedule shaped
// phases × chunks, chunk loads only by the owner (or anyone when
// read-shared), chunk stores only by the owner, atomics only on atomic
// words. A valid case is DRF by construction.
func (c *Case) Validate() error {
	if c.Phases < 1 {
		return fmt.Errorf("conform: case needs at least one phase, has %d", c.Phases)
	}
	if len(c.Threads) < 1 {
		return fmt.Errorf("conform: case has no threads")
	}
	if c.PrivateWords < 0 || c.ROWords < 0 || c.Chunks < 0 || c.ChunkWords < 0 || c.AtomicWords < 0 {
		return fmt.Errorf("conform: negative region geometry")
	}
	if len(c.Owner) != c.Phases {
		return fmt.Errorf("conform: owner schedule has %d phases, case has %d", len(c.Owner), c.Phases)
	}
	for p, row := range c.Owner {
		if len(row) != c.Chunks {
			return fmt.Errorf("conform: owner schedule phase %d covers %d chunks, case has %d", p, len(row), c.Chunks)
		}
		for k, o := range row {
			if o != ReadShared && (o < 0 || o >= len(c.Threads)) {
				return fmt.Errorf("conform: owner[%d][%d] = %d out of range", p, k, o)
			}
		}
	}
	for t, th := range c.Threads {
		if len(th.Ops) != c.Phases {
			return fmt.Errorf("conform: thread %d has %d phase programs, case has %d phases", t, len(th.Ops), c.Phases)
		}
		for p, ops := range th.Ops {
			for i, op := range ops {
				if err := c.validateOp(t, p, op); err != nil {
					return fmt.Errorf("thread %d phase %d op %d: %w", t, p, i, err)
				}
			}
		}
	}
	return nil
}

func (c *Case) validateOp(t, p int, op Op) error {
	switch op.Kind {
	case OpFence, OpCompute:
		return nil
	case OpLoad, OpStore, OpFetchAdd:
	default:
		return fmt.Errorf("conform: unknown op kind %q", op.Kind)
	}
	inRange := func(n int) error {
		if op.Word < 0 || op.Word >= n {
			return fmt.Errorf("conform: word %d out of range (region has %d)", op.Word, n)
		}
		return nil
	}
	switch op.Region {
	case RegPrivate:
		if op.Kind == OpFetchAdd {
			return fmt.Errorf("conform: atomics are confined to the atomic region")
		}
		return inRange(c.PrivateWords)
	case RegRO:
		if op.Kind != OpLoad {
			return fmt.Errorf("conform: %s on the read-only region", op.Kind)
		}
		return inRange(c.ROWords)
	case RegChunk:
		if op.Kind == OpFetchAdd {
			return fmt.Errorf("conform: atomics are confined to the atomic region")
		}
		if op.Chunk < 0 || op.Chunk >= c.Chunks {
			return fmt.Errorf("conform: chunk %d out of range (case has %d)", op.Chunk, c.Chunks)
		}
		owner := c.Owner[p][op.Chunk]
		if op.Kind == OpStore && owner != t {
			return fmt.Errorf("conform: store to chunk %d owned by %d (race)", op.Chunk, owner)
		}
		if op.Kind == OpLoad && owner != t && owner != ReadShared {
			return fmt.Errorf("conform: load of chunk %d owned by %d (race)", op.Chunk, owner)
		}
		return inRange(c.ChunkWords)
	case RegAtomic:
		if op.Kind != OpFetchAdd {
			return fmt.Errorf("conform: plain %s on an atomic word (race)", op.Kind)
		}
		return inRange(c.AtomicWords)
	default:
		return fmt.Errorf("conform: unknown region %q", op.Region)
	}
}

// ToJSON serializes the case in the stable format checked into
// testdata/conform/ and emitted for failing seeds.
func (c *Case) ToJSON() []byte {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		panic("conform: case marshal: " + err.Error()) // no unmarshalable fields
	}
	return append(data, '\n')
}

// FromJSON parses and validates a serialized case.
func FromJSON(data []byte) (*Case, error) {
	var c Case
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("conform: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}
