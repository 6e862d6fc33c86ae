package spandex

import (
	"strings"
	"testing"
)

// TestFigure1MessageSequence drives the protocoltrace example's scenario
// on the SDG configuration and asserts the canonical Figure-1 message
// orderings appear on the contended line:
//
//	1a: ReqO → data-less RspO; disjoint-word ReqWT with no probe;
//	1b: ReqWT+data → RvkO → RspRvkO → RspWT+data;
//	1c: line ReqV → forwarded word ReqV → partial RspVs.
func TestFigure1MessageSequence(t *testing.T) {
	sys, err := NewSystem(Options{ConfigName: "SDG", CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}

	lay := NewLayout()
	line := lay.Words(16)
	flag := lay.Words(16)

	prog := &Program{}
	prog.CPU = append(prog.CPU, GoThread(func(th *Thread) {
		th.Store(WordAddr(line, 0), 11)
		th.Store(WordAddr(line, 1), 22)
		th.Fence(false, true)
		th.AtomicStore(flag, 1, true)
		th.SpinUntilGE(flag, 2)
	}))
	for i := 1; i < sys.Machine().CPUThreads; i++ {
		prog.CPU = append(prog.CPU, nil)
	}
	var observed uint32
	prog.GPU = append(prog.GPU, []OpStream{GoThread(func(th *Thread) {
		th.SpinUntilGE(flag, 1)
		th.Store(WordAddr(line, 2), 33)
		th.Fence(false, true)
		old := th.FetchAdd(WordAddr(line, 0), 100, false, false)
		v := th.Load(WordAddr(line, 1))
		observed = old*1000 + v
		th.AtomicStore(flag, 2, true)
	})})
	defer prog.Close()

	var seq []string
	sys.Observe(TraceFunc(func(ev TraceEvent) {
		if ev.Kind != EvMsgDeliver {
			return
		}
		if msg := ev.Msg.String(); strings.Contains(msg, "line=0x10000 ") {
			// Keep only the type token.
			seq = append(seq, strings.Fields(msg)[0])
		}
	}))
	if err := sys.Attach(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(0); err != nil {
		t.Fatal(err)
	}
	if observed != 11*1000+22 {
		t.Fatalf("values wrong: %d (want old=11, v=22)", observed)
	}

	// The canonical subsequences must appear in order.
	mustSubsequence(t, seq, []string{"ReqO", "RspO"})                                     // 1a
	mustSubsequence(t, seq, []string{"ReqWT+data", "RvkO", "RspRvkO+data", "RspWT+data"}) // 1b
	mustSubsequence(t, seq, []string{"ReqV", "RspV+data"})                                // 1c
	// 1a: the data-less grant — RspO must appear WITHOUT a +data suffix.
	foundPlainRspO := false
	for _, s := range seq {
		if s == "RspO" {
			foundPlainRspO = true
		}
	}
	if !foundPlainRspO {
		t.Errorf("no data-less RspO in %v", seq)
	}
	// 1a: the disjoint-word ReqWT must not probe anyone (word 2 unowned).
	// (The only RvkO allowed is 1b's, for word 0.)
	rvks := 0
	for _, s := range seq {
		if s == "RvkO" {
			rvks++
		}
	}
	if rvks != 1 {
		t.Errorf("expected exactly one RvkO (1b), got %d in %v", rvks, seq)
	}
}

// mustSubsequence asserts want appears within seq in order (not
// necessarily contiguous).
func mustSubsequence(t *testing.T, seq, want []string) {
	t.Helper()
	i := 0
	for _, s := range seq {
		if i < len(want) && s == want[i] {
			i++
		}
	}
	if i != len(want) {
		t.Errorf("subsequence %v not found in %v", want, seq)
	}
}
