package spandex

import (
	"io"

	"spandex/internal/obs"
)

// This file exposes the system-level metrics engine (internal/obs):
// deterministic cycle-bucketed time series, contention telemetry, and the
// per-line sharing heatmaps, recorded by every observed run and reported
// in Result.Metrics.

type (
	// MetricsReport is one run's exported metrics (Result.Metrics). It is
	// excluded from Result.Fingerprint, like Result.Latency.
	MetricsReport = obs.MetricsReport
	// MetricsTimeSeries is one cycle-bucketed series of a MetricsReport.
	MetricsTimeSeries = obs.TimeSeries
	// LineHistory is one cache line's sharing/contention history entry.
	LineHistory = obs.LineMetrics
)

// ValidateMetricsJSONL checks a metrics JSONL export (MetricsReport.
// WriteJSONL) for structural validity and returns record counts per kind.
func ValidateMetricsJSONL(r io.Reader) (map[string]int, error) {
	return obs.ValidateMetricsJSONL(r)
}
