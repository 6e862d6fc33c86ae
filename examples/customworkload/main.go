// Customworkload shows how to define a new device access pattern against
// the library's simulated machines: implement the Workload interface with
// coroutine thread bodies, register it, and run it on any Table V
// configuration. The example models a producer-consumer ring buffer
// between one CPU core and the GPU — the kind of emerging fine-grained
// collaboration pattern the paper's introduction motivates.
package main

import (
	"fmt"
	"log"

	"spandex"
)

// ringWorkload: a CPU producer writes items into a ring buffer and bumps a
// tail counter with release semantics; GPU warps claim items with a
// fetch-add head counter and check the payloads.
type ringWorkload struct {
	Items    int
	RingSlot int // words per item
}

func (w *ringWorkload) Meta() spandex.Meta {
	return spandex.Meta{
		Name:            "ringbuffer",
		Suite:           "Custom",
		Pattern:         "CPU→GPU producer/consumer ring with fine-grained sync",
		Partitioning:    "task",
		Synchronization: "fine-grain",
		Sharing:         "flat",
		Locality:        "low",
		Params:          fmt.Sprintf("items: %d", w.Items),
	}
}

func (w *ringWorkload) Build(m spandex.Machine, seed uint64) *spandex.Program {
	lay := spandex.NewLayout()
	ring := lay.Words(w.Items * w.RingSlot)
	tail := lay.Words(16)
	head := lay.Words(16)
	bad := lay.Words(16)

	p := &spandex.Program{}

	// CPU producer.
	p.CPU = append(p.CPU, spandex.GoThread(func(t *spandex.Thread) {
		for i := 0; i < w.Items; i++ {
			for s := 0; s < w.RingSlot; s++ {
				t.Store(spandex.WordAddr(ring, i*w.RingSlot+s), uint32(i*1000+s))
			}
			// Publish: release makes the payload visible before the bump.
			t.FetchAdd(tail, 1, false, true)
		}
	}))
	for i := 1; i < m.CPUThreads; i++ {
		p.CPU = append(p.CPU, nil)
	}

	// GPU consumers: every warp claims items until the ring drains.
	consumer := func(t *spandex.Thread) {
		for {
			item := t.FetchAdd(head, 1, true, false)
			if int(item) >= w.Items {
				return
			}
			t.SpinUntilGE(tail, item+1)
			for s := 0; s < w.RingSlot; s++ {
				got := t.Load(spandex.WordAddr(ring, int(item)*w.RingSlot+s))
				if got != uint32(int(item)*1000+s) {
					t.FetchAdd(bad, 1, false, false)
					return
				}
			}
		}
	}
	for cu := 0; cu < m.GPUCUs; cu++ {
		var warps []spandex.OpStream
		for wp := 0; wp < m.WarpsPerCU; wp++ {
			warps = append(warps, spandex.GoThread(consumer))
		}
		p.GPU = append(p.GPU, warps)
	}

	p.Validate = func(read func(spandex.Addr) uint32) error {
		if n := read(bad); n != 0 {
			return fmt.Errorf("ringbuffer: %d consumers saw stale payloads", n)
		}
		if n := read(tail); int(n) != w.Items {
			return fmt.Errorf("ringbuffer: produced %d items, want %d", n, w.Items)
		}
		return nil
	}
	return p
}

func main() {
	w := &ringWorkload{Items: 256, RingSlot: 8}
	// Registration adds w to this process's workload registry, so
	// WorkloadByName, Sweep and RunMatrix in this program find it by name.
	// No other binary sees it.
	spandex.RegisterWorkload(w)

	fmt.Println("ring buffer producer/consumer across all configurations:")
	for _, cfg := range spandex.Configurations() {
		res, err := spandex.Run(w, spandex.Options{
			Config: cfg, Seed: 1, Validate: true, CheckInvariants: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-5s exec=%7.3f ms  traffic=%5d KB\n",
			cfg.Name, res.ExecMillis(), res.Traffic.TotalBytes(false)/1024)
	}
	fmt.Println("validation: every consumed payload matched; no stale reads")
}
