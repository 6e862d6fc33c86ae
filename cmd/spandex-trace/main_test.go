package main

import (
	"fmt"
	"strings"
	"testing"

	"spandex"
	"spandex/internal/proto"
)

// TestList checks that -list names all six configurations and every
// registered workload.
func TestList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out.String(), "\n")
	named := func(name string) bool {
		for _, l := range lines {
			if f := strings.Fields(l); len(f) > 0 && f[0] == name {
				return true
			}
		}
		return false
	}
	for _, name := range append([]string{"HMG", "HMD", "SMG", "SMD", "SDG", "SDD"}, spandex.WorkloadNames()...) {
		if !named(name) {
			t.Errorf("-list does not name %s:\n%s", name, out.String())
		}
	}
}

// TestSummarizeTotals checks that summarize -check on litmus/SDD, on
// Table VI's machine, prints the exec time, operation count and traffic
// per class that spandex.Run returns for the same options, and the
// validation verdict.
func TestSummarizeTotals(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-mode", "summarize", "-check", "-workload", "litmus", "-config", "SDD"}, &out); err != nil {
		t.Fatal(err)
	}
	w, err := spandex.WorkloadByName("litmus")
	if err != nil {
		t.Fatal(err)
	}
	res, err := spandex.Run(w, spandex.Options{ConfigName: "SDD", Seed: 42,
		CheckInvariants: true, CheckEveryTransition: true, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		fmt.Sprintf("exec time:  %.3f ms simulated (", res.ExecMillis()),
		fmt.Sprintf("operations: %d\n", res.Ops),
		fmt.Sprintf("traffic:    %d KB total (excluding DRAM)\n", res.Traffic.TotalBytes(false)/1024),
		"validation: final memory state matches the workload oracle\n",
	}
	for c := proto.Class(0); c < proto.NumClasses; c++ {
		if res.Traffic.Bytes[c] != 0 {
			want = append(want, fmt.Sprintf("  %-8s %10d bytes %8d msgs\n", c, res.Traffic.Bytes[c], res.Traffic.Messages[c]))
		}
	}
	for _, s := range want {
		if !strings.Contains(out.String(), s) {
			t.Errorf("summary lacks %q:\n%s", s, out.String())
		}
	}
}
