package conform

import (
	"fmt"
	"os"
	"path/filepath"
)

// LoadCaseFile reads and validates a JSON case (testdata/conform/*.json).
func LoadCaseFile(path string) (*Case, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := FromJSON(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// WriteCaseFile writes c as <c.Name>.json under dir, the reproducer that
// spandex-fuzz -replay runs on the machine the case records, and returns
// its path. The names the generator, the shrinker and the corpus give
// (seed-<n>, seed-<n>-min, ownership-pingpong, ...) are all file names.
func WriteCaseFile(c *Case, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, c.Name+".json")
	if err := os.WriteFile(path, c.ToJSON(), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
