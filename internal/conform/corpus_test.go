package conform

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCorpusCasesConform runs every hand-written corpus case through the
// full differential oracle.
func TestCorpusCasesConform(t *testing.T) {
	for _, c := range CorpusCases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
			if rep := CheckCase(c, nil, RunOpts{}); rep.Failed() {
				t.Fatal(rep.Err())
			}
		})
	}
}

// TestCorpusFilesInSync checks the corpus checked into testdata/conform/
// matches CorpusCases. Regenerate with:
// go run ./cmd/spandex-fuzz -write-corpus testdata/conform
// (from the repository root).
func TestCorpusFilesInSync(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "conform")
	for _, c := range CorpusCases() {
		path := filepath.Join(dir, c.Name+".json")
		got, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v (regenerate with spandex-fuzz -write-corpus)", path, err)
			continue
		}
		if string(got) != string(c.ToJSON()) {
			t.Errorf("%s is stale (regenerate with spandex-fuzz -write-corpus)", path)
		}
	}
}

// TestCorpusReplayFromJSON replays every checked-in JSON case through the
// oracle on the machine the case records, the path spandex-fuzz -replay
// takes. The minimized fuzz reproducers (seed-*-min) pin races that only
// evictions reach, so each must make L1 write-back evictions on its
// recorded machine: on the default one they make none.
func TestCorpusReplayFromJSON(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "conform", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no JSON cases under testdata/conform")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			c, err := LoadCaseFile(path)
			if err != nil {
				t.Fatal(err)
			}
			rep := CheckCase(c, nil, MachineOpts(c.Pressure, c.Banks))
			if rep.Failed() {
				t.Fatal(rep.Err())
			}
			if !strings.HasPrefix(c.Name, "seed-") {
				return
			}
			var evictions uint64
			for _, o := range rep.Outcomes {
				evictions += o.Res.Counters["mesil1.wb_evict"] + o.Res.Counters["dnl1.wb_evict"]
			}
			if evictions == 0 {
				t.Errorf("%s (pressure=%t, banks=%d) made no L1 write-back evictions on its recorded machine",
					c.Name, c.Pressure, c.Banks)
			}
		})
	}
}
