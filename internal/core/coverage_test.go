package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"spandex/internal/proto"
)

// TestCoverageFileRoundTrip writes two recorders as coverage files and
// reads them back merged: the format is indented JSON with sorted keys
// and a trailing newline, and ReadCoverage sums counts across files.
func TestCoverageFileRoundTrip(t *testing.T) {
	a, b := NewTransitionCoverage(), NewTransitionCoverage()
	a.Record("V", proto.ReqV)
	a.Record("V", proto.ReqV)
	a.Record("I", proto.ReqS)
	b.Record("V", proto.ReqV)

	dir := t.TempDir()
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := a.WriteFile(pa); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteFile(pb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(pa)
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\n  \"I|ReqS\": 1,\n  \"V|ReqV\": 2\n}\n"; string(data) != want {
		t.Errorf("coverage file = %q, want %q", data, want)
	}

	got, err := ReadCoverage(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]uint64{"I|ReqS": 1, "V|ReqV": 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("merged = %v, want %v", got, want)
	}
	if _, err := ReadCoverage(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing coverage file accepted")
	}
}
