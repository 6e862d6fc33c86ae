package conform

// The checked-in litmus corpus: hand-written cases pinning the sharing
// patterns the random generator only hits probabilistically. Each is an
// ordinary Case, so it runs through the same differential oracle as fuzzed
// programs, is checked into testdata/conform/ as JSON (regenerate with
// spandex-fuzz -write-corpus), and is executed as a table
// test on every configuration by the conformance tests.

// CorpusCases returns the corpus, one fresh copy per call.
func CorpusCases() []*Case {
	return []*Case{
		ownershipPingPong(),
		readersThenWriter(),
		falseSharingChunks(),
		atomicRendezvous(),
	}
}

// ownershipPingPong bounces one chunk between a CPU thread and a GPU
// thread every phase. Each new owner first loads every word (it must see
// the previous owner's stores exactly — the ownership-transfer path:
// Spandex ReqO/ReqWTfwd revocations, MESI forwarding) and then overwrites
// them all.
func ownershipPingPong() *Case {
	const words = 6
	c := &Case{
		Name:       "ownership-pingpong",
		Phases:     4,
		Chunks:     1,
		ChunkWords: words,
		Owner:      [][]int{{0}, {1}, {0}, {1}},
		Threads: []ThreadCase{
			{OnGPU: false},
			{OnGPU: true},
		},
	}
	for t := range c.Threads {
		for p := 0; p < c.Phases; p++ {
			var ops []Op
			if c.Owner[p][0] == t {
				if p > 0 {
					for w := 0; w < words; w++ {
						ops = append(ops, Op{Kind: OpLoad, Region: RegChunk, Word: w})
					}
				}
				for w := 0; w < words; w++ {
					ops = append(ops, Op{Kind: OpStore, Region: RegChunk, Word: w,
						Val: uint32(0xb0b0<<16) | uint32(p)<<8 | uint32(w)})
				}
			} else {
				ops = append(ops, Op{Kind: OpCompute, Val: 20})
			}
			c.Threads[t].Ops = append(c.Threads[t].Ops, ops)
		}
	}
	return c
}

// readersThenWriter alternates a chunk between read-shared phases (three
// threads load every word — self-invalidating readers must refetch after
// the barrier) and exclusive phases (one thread rewrites it). Stresses the
// downgrade/upgrade cycle: shared copies must die when ownership is taken
// and reads must miss to the new data when it returns to read-shared.
func readersThenWriter() *Case {
	const words = 4
	c := &Case{
		Name:       "readers-then-writer",
		Phases:     4,
		Chunks:     1,
		ChunkWords: words,
		Owner:      [][]int{{ReadShared}, {2}, {ReadShared}, {0}},
		Threads: []ThreadCase{
			{OnGPU: false},
			{OnGPU: true},
			{OnGPU: true},
		},
	}
	for t := range c.Threads {
		for p := 0; p < c.Phases; p++ {
			var ops []Op
			switch owner := c.Owner[p][0]; {
			case owner == ReadShared:
				for w := 0; w < words; w++ {
					ops = append(ops, Op{Kind: OpLoad, Region: RegChunk, Word: w})
				}
			case owner == t:
				for w := 0; w < words; w++ {
					ops = append(ops, Op{Kind: OpStore, Region: RegChunk, Word: w,
						Val: uint32(0xfeed<<16) | uint32(p)<<8 | uint32(w)})
				}
			default:
				ops = append(ops, Op{Kind: OpCompute, Val: 10})
			}
			c.Threads[t].Ops = append(c.Threads[t].Ops, ops)
		}
	}
	return c
}

// falseSharingChunks gives four threads four sub-line chunks (3 words each,
// so a 16-word cache line spans chunks with different owners): concurrent
// same-line writes under different coherence strategies, the word- vs
// line-granularity boundary. Each phase rotates the chunk assignment and
// each owner verifies the previous owner's values before overwriting.
func falseSharingChunks() *Case {
	const words = 3
	c := &Case{
		Name:       "false-sharing-chunks",
		Phases:     3,
		Chunks:     4,
		ChunkWords: words,
		Owner: [][]int{
			{0, 1, 2, 3},
			{1, 2, 3, 0},
			{2, 3, 0, 1},
		},
		Threads: []ThreadCase{
			{OnGPU: false},
			{OnGPU: false},
			{OnGPU: true},
			{OnGPU: true},
		},
	}
	for t := range c.Threads {
		for p := 0; p < c.Phases; p++ {
			var ops []Op
			for k := 0; k < c.Chunks; k++ {
				if c.Owner[p][k] != t {
					continue
				}
				if p > 0 {
					for w := 0; w < words; w++ {
						ops = append(ops, Op{Kind: OpLoad, Region: RegChunk, Chunk: k, Word: w})
					}
				}
				for w := 0; w < words; w++ {
					ops = append(ops, Op{Kind: OpStore, Region: RegChunk, Chunk: k, Word: w,
						Val: uint32(0xfa15e<<12) | uint32(p)<<8 | uint32(k)<<4 | uint32(w)})
				}
			}
			c.Threads[t].Ops = append(c.Threads[t].Ops, ops)
		}
	}
	return c
}

// atomicRendezvous hammers two atomic words with fenced fetch-adds from a
// CPU/GPU mix while private traffic runs alongside — the contended-RMW
// serialization path. Return values are timing-dependent and unlogged; the
// deterministic final sums are what the oracle checks.
func atomicRendezvous() *Case {
	c := &Case{
		Name:         "atomic-rendezvous",
		Phases:       2,
		PrivateWords: 2,
		AtomicWords:  2,
		Threads: []ThreadCase{
			{OnGPU: false},
			{OnGPU: true},
			{OnGPU: true},
		},
	}
	c.Owner = [][]int{nil, nil}
	for p := range c.Owner {
		c.Owner[p] = []int{}
	}
	for t := range c.Threads {
		for p := 0; p < c.Phases; p++ {
			var ops []Op
			for i := 0; i < 4; i++ {
				ops = append(ops,
					Op{Kind: OpFetchAdd, Region: RegAtomic, Word: i % 2, Val: uint32(t + 1)},
					Op{Kind: OpStore, Region: RegPrivate, Word: i % 2, Val: uint32(t)<<16 | uint32(p)<<8 | uint32(i)},
					Op{Kind: OpFence},
					Op{Kind: OpLoad, Region: RegPrivate, Word: i % 2},
				)
			}
			c.Threads[t].Ops = append(c.Threads[t].Ops, ops)
		}
	}
	return c
}
