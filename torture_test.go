package spandex

import (
	"fmt"
	"testing"
)

// tortureWorkload hammers a small set of contended words with atomics from
// every thread while asserting two per-thread properties inside the
// generators: (1) fetch-add return values on a private lane reconstruct a
// gap-free sequence, and (2) values observed on a shared counter never
// decrease (atomics are globally serialized). The final sums must be
// exact. This is the pure-atomics complement to the litmus DRF program.
type tortureWorkload struct {
	words   int
	perThr  int
	threads int
}

func (w *tortureWorkload) Meta() Meta {
	return Meta{Name: "atomic-torture", Suite: "Conformance",
		Pattern:      "contended fetch-add serialization",
		Partitioning: "data", Synchronization: "fine-grain",
		Sharing: "flat", Locality: "high",
		Params: fmt.Sprintf("%d hot words", w.words)}
}

func (w *tortureWorkload) Build(m Machine, seed uint64) *Program {
	lay := NewLayout()
	hot := lay.Words(w.words)
	bad := lay.Words(16)
	p := &Program{}

	body := func(tid int, rng *Rand) func(*Thread) {
		return func(t *Thread) {
			last := make([]uint32, w.words)
			for i := 0; i < w.perThr; i++ {
				k := rng.Intn(w.words)
				old := t.FetchAdd(WordAddr(hot, k), 1, false, false)
				// Monotonicity: a later atomic on the same word must see a
				// strictly larger pre-value than any earlier one we did.
				if last[k] > 0 && old < last[k] {
					t.FetchAdd(bad, 1, false, false)
					return
				}
				last[k] = old + 1
			}
		}
	}

	rng := NewRand(seed)
	tid := 0
	for i := 0; i < m.CPUThreads && tid < w.threads; i++ {
		p.CPU = append(p.CPU, GoThread(body(tid, NewRand(rng.Uint64()))))
		tid++
	}
	for cu := 0; cu < m.GPUCUs && tid < w.threads; cu++ {
		var warps []OpStream
		for wp := 0; wp < m.WarpsPerCU && tid < w.threads; wp++ {
			warps = append(warps, GoThread(body(tid, NewRand(rng.Uint64()))))
			tid++
		}
		p.GPU = append(p.GPU, warps)
	}
	total := uint32(tid * w.perThr)

	p.Validate = func(read func(Addr) uint32) error {
		if n := read(bad); n != 0 {
			return fmt.Errorf("atomic-torture: %d monotonicity violations", n)
		}
		var sum uint32
		for k := 0; k < w.words; k++ {
			sum += read(WordAddr(hot, k))
		}
		if sum != total {
			return fmt.Errorf("atomic-torture: sum = %d, want %d (lost or duplicated atomics)", sum, total)
		}
		return nil
	}
	return p
}

// TestAtomicTorture runs the contended-atomics conformance program on
// every configuration; it catches lost updates, duplicated updates, and
// serialization violations in all three atomic implementations (local
// RMW under MESI ownership, DeNovo word ownership, and LLC/L2-performed
// updates). The variants × configurations table covers the contention
// extremes (one hot word vs. spread), a CPU-only and a GPU-heavy machine,
// and runs every Spandex transition through the per-transition invariant
// audit.
func TestAtomicTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("torture in -short mode")
	}
	variants := []struct {
		name               string
		words, perThr, thr int
		cpuCores, gpuCUs   int
		seed               uint64
	}{
		{"baseline", 4, 60, 20, 4, 4, 77},
		{"single-hot-word", 1, 80, 20, 4, 4, 78},
		{"spread", 16, 40, 20, 4, 4, 79},
		{"cpu-only", 4, 60, 8, 4, 0, 80},
		{"gpu-heavy", 4, 40, 24, 1, 8, 81},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			w := &tortureWorkload{words: v.words, perThr: v.perThr, threads: v.thr}
			for _, cn := range ConfigNames() {
				cn := cn
				t.Run(cn, func(t *testing.T) {
					t.Parallel()
					params := FastParams()
					params.Devices = []DeviceSpec{{Class: ClassCPU, Count: v.cpuCores}, {Class: ClassGPU, Count: v.gpuCUs}}
					if _, err := Run(w, Options{ConfigName: cn, Params: &params,
						Seed: v.seed, CheckInvariants: true,
						CheckEveryTransition: true, Validate: true}); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}
