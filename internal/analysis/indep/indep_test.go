package indep

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"spandex/internal/analysis"
	"spandex/internal/analysis/msgflow"
)

// TestDeriveRepo derives the facts from the real protocol packages and
// pins them: the guard and settled-local sets are soundness assumptions
// of mcheck's partial-order reduction, so a protocol change that moves
// them must be a conscious event, not silent drift. It also verifies the
// generated table file consumed by internal/mcheck matches the derivation
// byte-for-byte — the same freshness `spandex-graph -check` gates in CI,
// but enforced by `go test` too.
func TestDeriveRepo(t *testing.T) {
	pkgs, err := analysis.Load("../../..", msgflow.Packages...)
	if err != nil {
		t.Fatal(err)
	}
	g, err := msgflow.Build(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Derive(g)
	if err != nil {
		t.Fatal(err)
	}
	wantGuard := []string{"ReqV", "ReqS", "ReqWT", "ReqO", "ReqOData"}
	if !reflect.DeepEqual(f.Guard, wantGuard) {
		t.Errorf("guardMsgTypes = %v, want %v", f.Guard, wantGuard)
	}
	wantLocal := []string{"ReqV", "ReqS", "ReqWT", "ReqO", "ReqWTData", "ReqOData", "RspRvkO"}
	if !reflect.DeepEqual(f.SettledLocal, wantLocal) {
		t.Errorf("settledLocalMsgTypes = %v, want %v", f.SettledLocal, wantLocal)
	}
	if !f.MemSoleClient {
		t.Errorf("memSoleClient = false (clients %v); DRAM ample commits would be unsound to keep enabled", f.MemClients)
	}

	// ReqWB must stay excluded: its owner write-back block emits MemWrite
	// from settled states, the exact non-locality the set exists to avoid.
	for _, m := range f.SettledLocal {
		if m == "ReqWB" {
			t.Errorf("ReqWB classified settled-local; its settled-state blocks emit memory traffic")
		}
	}

	src, err := GoSource(f)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := os.ReadFile("../../../internal/mcheck/indep_tables.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, disk) {
		t.Errorf("internal/mcheck/indep_tables.go is stale; re-run spandex-graph (make graph)")
	}
}
