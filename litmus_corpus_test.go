package spandex_test

// The classic litmus corpus, as ordinary table tests: each shape
// (message-passing, store-buffering-with-fence, coRR, coWW, ownership
// ping-pong) runs on every cache configuration and every CPU/GPU thread
// placement, with the per-transition coherence audit enabled. These pin
// the textbook orderings SC-for-DRF promises; the randomized differential
// fuzzer (internal/conform, cmd/spandex-fuzz) explores the space around
// them.
//
// This is an external test package: internal/conform imports the root
// package, so the corpus tests that want both live out here.

import (
	"fmt"
	"testing"

	"spandex"
	"spandex/internal/conform"
)

// recorder collects the first in-thread assertion failure; bodies keep
// running after a failure so multi-thread protocols (spins, barriers)
// stay live.
type recorder struct{ err error }

func (r *recorder) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// litmusShape builds fresh thread bodies and a final-state validator per
// run (run-local state lives in the closure).
type litmusShape struct {
	name string
	make func() (bodies [2]func(*spandex.Thread), validate func(read func(spandex.Addr) uint32) error)
}

// litmusWorkload places a shape's two threads on a CPU/GPU mix.
type litmusWorkload struct {
	shape litmusShape
	gpu   [2]bool
}

func (w *litmusWorkload) Meta() spandex.Meta {
	return spandex.Meta{
		Name:            "litmus:" + w.shape.name,
		Suite:           "Conformance",
		Pattern:         "two-thread litmus shape; exact-value ordering checks",
		Partitioning:    "data",
		Synchronization: "fine-grain (flags, fences, barriers)",
		Sharing:         "flat",
		Locality:        "low",
	}
}

func (w *litmusWorkload) Build(m spandex.Machine, seed uint64) *spandex.Program {
	bodies, validate := w.shape.make()
	p := &spandex.Program{Validate: validate}
	for i, body := range bodies {
		s := spandex.GoThread(body)
		if w.gpu[i] {
			p.GPU = append(p.GPU, []spandex.OpStream{s})
		} else {
			p.CPU = append(p.CPU, s)
		}
	}
	return p
}

// messagePassing: T0 publishes data then releases a flag; T1 acquires the
// flag and must see the data.
func messagePassing() litmusShape {
	return litmusShape{name: "message-passing", make: func() ([2]func(*spandex.Thread), func(func(spandex.Addr) uint32) error) {
		lay := spandex.NewLayout()
		data := lay.Words(16)
		flag := lay.Words(16)
		var rec recorder
		bodies := [2]func(*spandex.Thread){
			func(t *spandex.Thread) {
				t.Store(data, 0xda7a)
				t.AtomicStore(flag, 1, true)
			},
			func(t *spandex.Thread) {
				t.SpinUntilGE(flag, 1)
				if got := t.Load(data); got != 0xda7a {
					rec.fail("mp: flag observed but data = %#x, want 0xda7a", got)
				}
			},
		}
		return bodies, func(read func(spandex.Addr) uint32) error { return rec.err }
	}}
}

// storeBufferingWithFence: with full fences between the (atomic) store and
// the opposite load, both threads reading 0 is forbidden.
func storeBufferingWithFence() litmusShape {
	return litmusShape{name: "store-buffering-fence", make: func() ([2]func(*spandex.Thread), func(func(spandex.Addr) uint32) error) {
		lay := spandex.NewLayout()
		x := lay.Words(16)
		y := lay.Words(16)
		var r0, r1 uint32
		bodies := [2]func(*spandex.Thread){
			func(t *spandex.Thread) {
				t.AtomicStore(x, 1, true)
				t.Fence(true, true)
				r0 = t.AtomicRead(y, true)
			},
			func(t *spandex.Thread) {
				t.AtomicStore(y, 1, true)
				t.Fence(true, true)
				r1 = t.AtomicRead(x, true)
			},
		}
		return bodies, func(read func(spandex.Addr) uint32) error {
			if r0 == 0 && r1 == 0 {
				return fmt.Errorf("sb: forbidden outcome r0=0, r1=0 (stores reordered past fences)")
			}
			return nil
		}
	}}
}

// coRR: a reader polling one word written with ascending values must never
// observe time going backwards.
func coherenceReadRead() litmusShape {
	const n = 16
	return litmusShape{name: "coRR", make: func() ([2]func(*spandex.Thread), func(func(spandex.Addr) uint32) error) {
		lay := spandex.NewLayout()
		x := lay.Words(16)
		var rec recorder
		bodies := [2]func(*spandex.Thread){
			func(t *spandex.Thread) {
				for i := uint32(1); i <= n; i++ {
					t.AtomicStore(x, i, true)
				}
			},
			func(t *spandex.Thread) {
				prev := uint32(0)
				for i := 0; i < n; i++ {
					v := t.AtomicRead(x, true)
					if v < prev {
						rec.fail("coRR: read #%d observed %d after %d (non-monotonic)", i, v, prev)
					}
					prev = v
				}
			},
		}
		return bodies, func(read func(spandex.Addr) uint32) error {
			if rec.err != nil {
				return rec.err
			}
			if got := read(x); got != n {
				return fmt.Errorf("coRR: final value %d, want %d", got, n)
			}
			return nil
		}
	}}
}

// coWW: concurrent fetch-adds on one word; each thread's own return values
// must be strictly increasing and the final sum exact.
func coherenceWriteWrite() litmusShape {
	const perThr = 8
	return litmusShape{name: "coWW", make: func() ([2]func(*spandex.Thread), func(func(spandex.Addr) uint32) error) {
		lay := spandex.NewLayout()
		x := lay.Words(16)
		var rec recorder
		body := func(delta uint32) func(*spandex.Thread) {
			return func(t *spandex.Thread) {
				last := int64(-1)
				for i := 0; i < perThr; i++ {
					old := t.FetchAdd(x, delta, false, false)
					if int64(old) <= last {
						rec.fail("coWW: fetch-add observed %d after %d (lost update)", old, last)
					}
					last = int64(old)
				}
			}
		}
		bodies := [2]func(*spandex.Thread){body(3), body(5)}
		return bodies, func(read func(spandex.Addr) uint32) error {
			if rec.err != nil {
				return rec.err
			}
			if got, want := read(x), uint32(perThr*(3+5)); got != want {
				return fmt.Errorf("coWW: final sum %d, want %d", got, want)
			}
			return nil
		}
	}}
}

// ownershipPingPong: a buffer alternates writers each barrier round; the
// reader must observe the full round's values exactly.
func ownershipPingPongShape() litmusShape {
	const words, rounds = 8, 4
	val := func(r, w int) uint32 { return 0x50<<16 | uint32(r)<<8 | uint32(w) + 1 }
	return litmusShape{name: "ownership-pingpong", make: func() ([2]func(*spandex.Thread), func(func(spandex.Addr) uint32) error) {
		lay := spandex.NewLayout()
		buf := lay.Words(words)
		barrier := spandex.Barrier{Counter: lay.Words(16), Gen: lay.Words(16), N: 2}
		var rec recorder
		body := func(tid int) func(*spandex.Thread) {
			return func(t *spandex.Thread) {
				for r := 0; r < rounds; r++ {
					if r%2 == tid {
						for w := 0; w < words; w++ {
							t.Store(spandex.WordAddr(buf, w), val(r, w))
						}
					}
					t.Wait(barrier)
					if r%2 != tid {
						for w := 0; w < words; w++ {
							if got := t.Load(spandex.WordAddr(buf, w)); got != val(r, w) {
								rec.fail("pingpong: round %d word %d = %#x, want %#x", r, w, got, val(r, w))
							}
						}
					}
					t.Wait(barrier)
				}
			}
		}
		bodies := [2]func(*spandex.Thread){body(0), body(1)}
		return bodies, func(read func(spandex.Addr) uint32) error {
			if rec.err != nil {
				return rec.err
			}
			for w := 0; w < words; w++ {
				if got := read(spandex.WordAddr(buf, w)); got != val(rounds-1, w) {
					return fmt.Errorf("pingpong: final word %d = %#x, want %#x", w, got, val(rounds-1, w))
				}
			}
			return nil
		}
	}}
}

func TestLitmusCorpus(t *testing.T) {
	shapes := []litmusShape{
		messagePassing(),
		storeBufferingWithFence(),
		coherenceReadRead(),
		coherenceWriteWrite(),
		ownershipPingPongShape(),
	}
	placements := []struct {
		name string
		gpu  [2]bool
	}{
		{"cpu-cpu", [2]bool{false, false}},
		{"cpu-gpu", [2]bool{false, true}},
		{"gpu-gpu", [2]bool{true, true}},
	}
	for _, shape := range shapes {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			for _, pl := range placements {
				pl := pl
				t.Run(pl.name, func(t *testing.T) {
					for _, cfg := range spandex.ConfigNames() {
						cfg := cfg
						t.Run(cfg, func(t *testing.T) {
							t.Parallel()
							params := spandex.FastParams()
							nCPU, nGPU := 1, 0
							for _, g := range pl.gpu {
								if g {
									nGPU++
								}
							}
							if !pl.gpu[0] && !pl.gpu[1] {
								nCPU = 2
							}
							params.Devices = []spandex.DeviceSpec{
								{Class: spandex.ClassCPU, Count: nCPU},
								{Class: spandex.ClassGPU, Count: nGPU},
							}
							params.WarpsPerCU = 1
							_, err := spandex.Run(&litmusWorkload{shape: shape, gpu: pl.gpu}, spandex.Options{
								ConfigName:           cfg,
								Params:               &params,
								Seed:                 1,
								CheckInvariants:      true,
								CheckEveryTransition: true,
								Validate:             true,
								MaxTime:              conform.DefaultMaxTime,
							})
							if err != nil {
								t.Fatal(err)
							}
						})
					}
				})
			}
		})
	}
}
