package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"spandex/internal/analysis"
	"spandex/internal/analysis/msgflow"
	"spandex/internal/detsort"
)

const repoRoot = "../.."

var (
	loadOnce sync.Once
	loaded   []*analysis.Package
	loadErr  error
)

// load loads the repository's protocol packages once per test binary and
// builds the artifacts from them.
func load(t *testing.T) ([]*analysis.Package, *artifacts) {
	t.Helper()
	loadOnce.Do(func() { loaded, loadErr = analysis.Load(repoRoot, msgflow.Packages...) })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	a, err := build(loaded)
	if err != nil {
		t.Fatal(err)
	}
	return loaded, a
}

// copyOutputs copies the checked-in outputs into a fresh temporary root.
func copyOutputs(t *testing.T, a *artifacts) string {
	t.Helper()
	root := t.TempDir()
	for _, p := range detsort.Keys(a.files) {
		data, err := os.ReadFile(filepath.Join(repoRoot, p))
		if err != nil {
			t.Fatal(err)
		}
		writeFile(t, filepath.Join(root, p), data)
	}
	return root
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// fault is one edit to a copy of the outputs and the one problem the
// check must report for it ("" = passes).
type fault struct {
	name string
	edit func(root string) error
	want string
}

// TestCheckFindsEachFault runs the -check logic over a copy of the
// checked-in outputs: the clean copy passes, and a one-byte edit, a
// deleted file and an extra .json in each artifact directory each fail
// and name the path.
func TestCheckFindsEachFault(t *testing.T) {
	pkgs, a := load(t)
	faults := []fault{{"clean copy", func(string) error { return nil }, ""}}
	for _, p := range []string{"docs/transitions/core-llc.json", "docs/msgflow/flow.dot", "docs/indep/indep.json", tablesFile} {
		faults = append(faults,
			fault{"one-byte edit of " + p, func(root string) error {
				path := filepath.Join(root, p)
				data, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				data[len(data)/2] ^= 1
				return os.WriteFile(path, data, 0o644)
			}, "stale: " + p},
			fault{"deleted " + p, func(root string) error {
				return os.Remove(filepath.Join(root, p))
			}, "stale: " + p})
	}
	for _, dir := range outDirs {
		p := filepath.Join(dir, "extra.json")
		faults = append(faults, fault{"orphan " + p, func(root string) error {
			return os.WriteFile(filepath.Join(root, p), []byte("{}\n"), 0o644)
		}, "orphan: " + p})
	}

	for _, tc := range faults {
		root := copyOutputs(t, a)
		if err := tc.edit(root); err != nil {
			t.Fatal(err)
		}
		problems, err := checkTree(root, a, pkgs, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		got := strings.Join(problems, "\n")
		switch {
		case tc.want == "" && len(problems) > 0:
			t.Errorf("%s: check failed:\n%s", tc.name, got)
		case tc.want != "" && len(problems) != 1:
			t.Errorf("%s: got %d problems, want one naming %q:\n%s", tc.name, len(problems), tc.want, got)
		case tc.want != "" && !strings.HasPrefix(got, tc.want):
			t.Errorf("%s: problem %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestWriteRemovesOrphans regenerates into an empty tree holding one
// orphan: the orphan is removed and the result passes the check.
func TestWriteRemovesOrphans(t *testing.T) {
	pkgs, a := load(t)
	root := t.TempDir()
	orphan := filepath.Join(root, "docs/indep/old.dot")
	writeFile(t, orphan, []byte("digraph {}\n"))
	removed, err := a.write(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != "docs/indep/old.dot" {
		t.Errorf("removed %v, want [docs/indep/old.dot]", removed)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan still present: %v", err)
	}
	problems, err := checkTree(root, a, pkgs, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) > 0 {
		t.Errorf("check after write failed:\n%s", strings.Join(problems, "\n"))
	}
}

// TestDiff cross-checks coverage files against the checked-in LLC graph:
// a known (state, message) pair passes, and an observed pair missing from
// the graph fails.
func TestDiff(t *testing.T) {
	graph := filepath.Join(repoRoot, diffGraph)
	dir := t.TempDir()
	known := filepath.Join(dir, "known.json")
	unknown := filepath.Join(dir, "unknown.json")
	writeFile(t, known, []byte(`{"V|ReqV": 3}`))
	writeFile(t, unknown, []byte(`{"V|ReqV": 1, "X|ReqV": 2}`))

	if err := runDiff(io.Discard, graph, []string{known}); err != nil {
		t.Errorf("known pair: %v", err)
	}
	var out strings.Builder
	err := runDiff(&out, graph, []string{known, unknown})
	if err == nil || !strings.Contains(err.Error(), "1 observed transitions missing from the static graph") {
		t.Errorf("unknown pair: err = %v, want one missing transition", err)
	}
	if !strings.Contains(out.String(), "UNKNOWN (observed, not in static graph): X|ReqV") {
		t.Errorf("report does not name the unknown pair:\n%s", out.String())
	}
}
