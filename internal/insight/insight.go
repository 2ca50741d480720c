// Package insight is the analytics layer over the causal event
// journal: it turns raw internal/events streams into answers — where
// did an invocation's latency go (critical-path analysis with a ranked
// blame table), how do the components talk to each other (a service
// graph with per-edge RED stats).
//
// Everything here is a pure function of the journal contents: spans
// are reconstructed from begin/end pairs, per-trace timestamps are
// normalized with the same monotonic clamp the Chrome exporter applies
// (failover attempts restart their invocation clocks at zero), and
// every exported slice is sorted, so two same-seed runs produce
// byte-identical JSON and DOT reports.
package insight

import (
	"sort"

	"repro/internal/events"
	"repro/internal/metrics"
)

// Report is one full analysis of a journal: every trace's critical
// path and blame table plus the service graph derived from the same
// events. All slices are sorted (traces by ID, graph nodes and edges
// by name), so the JSON encoding is byte-stable for a given journal.
type Report struct {
	// EventCount is how many journal events the analysis consumed.
	EventCount int `json:"event_count"`
	// TraceCount is how many distinct traces the journal held.
	TraceCount int            `json:"trace_count"`
	Traces     []TraceInsight `json:"traces"`
	Graph      ServiceGraph   `json:"graph"`
	// Coverage, when set, records that the journal behind this report
	// was tail-sampled: KeptTraces of TotalTraces survived the sampler
	// (docs/telemetry.md). Nil for full-fidelity journals, so reports
	// over unsampled journals keep their exact historical encoding.
	Coverage *Coverage `json:"coverage,omitempty"`
}

// Coverage is the sampled-journal annotation: how many traces the
// report actually saw out of how many the workload produced. Reports
// over a sampled journal are still deterministic — the sampler's keep
// decisions are seeded — but they are partial, and this says by how
// much.
type Coverage struct {
	KeptTraces  int `json:"kept_traces"`
	TotalTraces int `json:"total_traces"`
}

// AnnotateCoverage attaches a sampling-coverage note to the report.
func (r *Report) AnnotateCoverage(kept, total int) {
	r.Coverage = &Coverage{KeptTraces: kept, TotalTraces: total}
}

// Analyze builds a full report from a journal's events (as returned by
// Journal.Events — append order).
func Analyze(evs []events.Event) *Report {
	trees := buildTrees(evs)
	r := &Report{EventCount: len(evs), TraceCount: len(trees)}
	for _, t := range trees {
		r.Traces = append(r.Traces, t.insight())
	}
	sort.Slice(r.Traces, func(i, j int) bool { return r.Traces[i].Trace < r.Traces[j].Trace })
	r.Graph = buildGraph(trees)
	return r
}

// CountReport bumps the insight_reports_total counter for one served
// analysis of the given kind (the gateway serves only "report").
// Nil-safe like every instrument.
func CountReport(reg *metrics.Registry, kind string) {
	reg.Counter(metrics.Name("insight_reports_total", "kind", kind)).Inc()
}
