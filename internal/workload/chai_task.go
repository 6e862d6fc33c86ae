package workload

import (
	"fmt"

	"spandex/internal/device"
	"spandex/internal/memaddr"
)

// RSCT is Chai's fine-grained task-partitioned RANSAC (paper §IV-B2): a
// CPU thread produces sample parameter sets and signals the GPU with
// fine-grained synchronization; every GPU worker then densely reads the
// same input matrix to evaluate the model. CPU→GPU data volume is small
// while all GPU cores share the same reads — strongly hierarchical
// sharing, the pattern an intermediate GPU L2 filters well.
type RSCT struct {
	InputWords int
	Tasks      int
	GPUWarps   int // Table VII: 16 TBs, 1 CT
}

// DefaultRSCT returns the scaled-down evaluation size.
func DefaultRSCT() *RSCT { return &RSCT{InputWords: 2048, Tasks: 6, GPUWarps: 16} }

// Meta implements Workload.
func (w *RSCT) Meta() Meta {
	return Meta{
		Name:            "rsct",
		Suite:           "Chai",
		Pattern:         "CPU produces parameters; all GPU workers densely read one shared input",
		Partitioning:    "task",
		Synchronization: "fine-grain",
		Sharing:         "hierarchical",
		Locality:        "data: high (shared dense reads), atomic: low",
		Params:          fmt.Sprintf("input: %d words, tasks: %d", w.InputWords, w.Tasks),
	}
}

// Build implements Workload.
func (w *RSCT) Build(m Machine, seed uint64) *Program {
	lay := NewLayout()
	input := lay.Words(w.InputWords)
	params := lay.Words(w.Tasks * 16) // one line of parameters per task
	flags := lay.Words(w.Tasks * 16)  // one flag line per task
	results := lay.Words(w.Tasks * 16)
	doneCtr := lay.Words(16)

	gpuWarps := w.GPUWarps
	if max := m.GPUCUs * m.WarpsPerCU; gpuWarps > max {
		gpuWarps = max
	}

	rng := NewRand(seed)
	p := &Program{}
	inputVals := make([]uint32, w.InputWords)
	for i := range inputVals {
		inputVals[i] = rng.U32() % 1024
		p.Init = append(p.Init, WordInit{Word(input, i), inputVals[i]})
	}
	paramVals := make([]uint32, w.Tasks)
	for k := range paramVals {
		paramVals[k] = uint32(rng.Intn(1000) + 1)
	}

	// model scores the input under a parameter (cheap integer "error").
	model := func(param, x uint32) uint32 { return (x ^ param) & 0xff }

	cpuBody := func(t *Thread) {
		for k := 0; k < w.Tasks; k++ {
			// Produce the parameter set, then publish it.
			t.Compute(200)
			t.Store(Word(params, k*16), paramVals[k])
			t.AtomicStore(Word(flags, k*16), 1, true)
		}
		// Wait for all workers to finish all tasks.
		t.SpinUntilGE(doneCtr, uint32(gpuWarps*w.Tasks))
	}

	gpuBody := func(g int) func(*Thread) {
		return func(t *Thread) {
			for k := 0; k < w.Tasks; k++ {
				t.SpinUntilGE(Word(flags, k*16), 1)
				param := t.Load(Word(params, k*16))
				var err uint32
				// Dense shared read: every worker scans the whole input.
				for i := 0; i < w.InputWords; i++ {
					err += model(param, t.Load(Word(input, i)))
				}
				t.FetchAdd(Word(results, k*16), err, false, true)
				t.FetchAdd(doneCtr, 1, false, true)
			}
		}
	}

	for i := 0; i < m.CPUThreads; i++ {
		if i == 0 {
			p.CPU = append(p.CPU, Go(cpuBody))
		} else {
			p.CPU = append(p.CPU, nil)
		}
	}
	gw := 0
	for cu := 0; cu < m.GPUCUs && gw < gpuWarps; cu++ {
		var warps []device.OpStream
		for wp := 0; wp < m.WarpsPerCU && gw < gpuWarps; wp++ {
			warps = append(warps, Go(gpuBody(gw)))
			gw++
		}
		p.GPU = append(p.GPU, warps)
	}

	p.Validate = func(read func(memaddr.Addr) uint32) error {
		for k := 0; k < w.Tasks; k++ {
			var perWorker uint32
			for _, x := range inputVals {
				perWorker += model(paramVals[k], x)
			}
			want := perWorker * uint32(gpuWarps)
			if got := read(Word(results, k*16)); got != want {
				return fmt.Errorf("rsct: result[%d] = %d, want %d", k, got, want)
			}
		}
		return nil
	}
	return p
}

// TQH is Chai's task-queue-system histogram (paper §IV-B2): the CPU pushes
// task descriptors onto per-GPU-partition queues with fine-grained
// synchronization; each GPU worker pops only its own queue(s) and densely
// reads its own partition of the input (minimal hierarchical sharing),
// updating a shared histogram with atomics.
type TQH struct {
	Queues     int // one per GPU worker group
	TasksPerQ  int
	BlockWords int
	Bins       int
	GPUWarps   int // Table VII: 32 TBs, 1 CT
}

// DefaultTQH returns the scaled-down evaluation size.
func DefaultTQH() *TQH {
	return &TQH{Queues: 16, TasksPerQ: 4, BlockWords: 192, Bins: 128, GPUWarps: 32}
}

// Meta implements Workload.
func (w *TQH) Meta() Meta {
	return Meta{
		Name:            "tqh",
		Suite:           "Chai",
		Pattern:         "CPU pushes per-partition task queues; GPU pops and histograms its own partition",
		Partitioning:    "task",
		Synchronization: "fine-grain",
		Sharing:         "hierarchical (per-partition)",
		Locality:        "data: low, atomic: high",
		Params: fmt.Sprintf("queues: %d x %d tasks, block: %d words, bins: %d",
			w.Queues, w.TasksPerQ, w.BlockWords, w.Bins),
	}
}

// Build implements Workload.
func (w *TQH) Build(m Machine, seed uint64) *Program {
	lay := NewLayout()
	nTasks := w.Queues * w.TasksPerQ
	input := lay.Words(nTasks * w.BlockWords)
	bins := lay.Words(w.Bins)
	// Per-queue tail counters (written by CPU producer) and head counters
	// (popped by workers), each on its own line.
	tails := lay.Words(w.Queues * 16)
	heads := lay.Words(w.Queues * 16)
	descs := lay.Words(nTasks * 16) // task descriptors: block index

	gpuWarps := w.GPUWarps
	if max := m.GPUCUs * m.WarpsPerCU; gpuWarps > max {
		gpuWarps = max
	}

	rng := NewRand(seed)
	p := &Program{}
	vals := make([]uint32, nTasks*w.BlockWords)
	for i := range vals {
		vals[i] = rng.U32() % 4096
		p.Init = append(p.Init, WordInit{Word(input, i), vals[i]})
	}

	cpuBody := func(t *Thread) {
		// Push tasks round-robin across queues with release semantics.
		for k := 0; k < nTasks; k++ {
			q := k % w.Queues
			t.Compute(80) // produce the descriptor
			t.Store(Word(descs, k*16), uint32(k))
			t.FetchAdd(Word(tails, q*16), 1, false, true)
		}
	}

	// Warp g drains, in order, every queue q ≡ g (mod n). With at least
	// as many warps as queues that is queue g mod Queues alone; with fewer
	// (FastParams has four) every queue still has a consumer.
	n := min(gpuWarps, w.Queues)
	gpuBody := func(g int) func(*Thread) {
		return func(t *Thread) {
			for q := g % n; q < w.Queues; q += n {
				for {
					// Claim the next slot in this queue.
					slot := t.FetchAdd(Word(heads, q*16), 1, true, false)
					if int(slot) >= w.TasksPerQ {
						break
					}
					// Wait for the producer to publish that many tasks.
					t.SpinUntilGE(Word(tails, q*16), slot+1)
					taskIdx := t.Load(Word(descs, (int(slot)*w.Queues+q)*16))
					base := int(taskIdx) * w.BlockWords
					for i := 0; i < w.BlockWords; i++ {
						v := t.Load(Word(input, base+i))
						t.FetchAdd(Word(bins, int(v)%w.Bins), 1, false, false)
					}
				}
			}
		}
	}

	for i := 0; i < m.CPUThreads; i++ {
		if i == 0 {
			p.CPU = append(p.CPU, Go(cpuBody))
		} else {
			p.CPU = append(p.CPU, nil)
		}
	}
	gw := 0
	for cu := 0; cu < m.GPUCUs && gw < gpuWarps; cu++ {
		var warps []device.OpStream
		for wp := 0; wp < m.WarpsPerCU && gw < gpuWarps; wp++ {
			warps = append(warps, Go(gpuBody(gw)))
			gw++
		}
		p.GPU = append(p.GPU, warps)
	}

	p.Validate = func(read func(memaddr.Addr) uint32) error {
		want := make([]uint32, w.Bins)
		for _, v := range vals {
			want[int(v)%w.Bins]++
		}
		for b := 0; b < w.Bins; b++ {
			if got := read(Word(bins, b)); got != want[b] {
				return fmt.Errorf("tqh: bin %d = %d, want %d", b, got, want[b])
			}
		}
		return nil
	}
	return p
}

func init() {
	Register(DefaultRSCT())
	Register(DefaultTQH())
}
