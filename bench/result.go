package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// result is one run of one workload, as stored in a results file.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	// Ops is the fixed measured op count, or 0 for a time-bounded run.
	Ops       int       `json:"ops"`
	Clients   int       `json:"clients"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Correct   bool      `json:"correct"`
	Metrics   metricSet `json:"metrics"`
	// Notes are human-readable lines that are not metrics: the first
	// oracle failures, the conservation line, the mirror check.
	Notes []string `json:"notes,omitempty"`
}

// contract is the one-line form the benchmark driver reads.
func (r *result) contract() map[string]any {
	return map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics,
	}
}

// print writes every metric by name with its unit, and the sample count
// the latency percentiles rest on.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed=%d trace=%d clients=%d  attempted=%d failed=%d correct=%v\n",
		r.Workload, r.Seed, r.Trace, r.Clients, r.Attempted, r.Failed, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-36s %16.4f %s\n", name, m.Value, m.Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
}

// resultsFile is the on-disk shape -compare reads: every run appended to
// it, several per workload when a set of runs is being collected.
type resultsFile struct {
	Runs []*result `json:"runs"`
}

func readResults(path string) (*resultsFile, error) {
	var f resultsFile
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return &f, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func appendResult(path string, r *result) error {
	f, err := readResults(path)
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, r)
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
