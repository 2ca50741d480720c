package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// Snapshot is a point-in-time, export-ready view of a registry. All
// slices are sorted by metric name so the text rendering and the JSON
// encoding are byte-stable for a given simulated workload.
type Snapshot struct {
	// VirtualTimeNS is always 0: per-invocation clocks are independent,
	// so a registry has no single virtual time to stamp. The field keeps
	// the export format.
	VirtualTimeNS int64             `json:"virtual_time_ns"`
	Counters      []CounterSnapshot `json:"counters"`
	Gauges        []GaugeSnapshot   `json:"gauges"`
	Histograms    []HistSnapshot    `json:"histograms"`
}

// CounterSnapshot is one exported counter.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnapshot is one exported gauge.
type GaugeSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// BucketSnapshot is one histogram bucket: the count of observations at
// or below UpperBound. The overflow bucket has UpperBound +Inf,
// encoded in JSON as null.
type BucketSnapshot struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// MarshalJSON encodes +Inf as null (JSON has no Inf literal).
func (b BucketSnapshot) MarshalJSON() ([]byte, error) {
	if math.IsInf(b.UpperBound, 1) {
		return []byte(fmt.Sprintf(`{"le":null,"count":%d}`, b.Count)), nil
	}
	return []byte(fmt.Sprintf(`{"le":%s,"count":%d}`, jsonFloat(b.UpperBound), b.Count)), nil
}

// UnmarshalJSON decodes null back to +Inf.
func (b *BucketSnapshot) UnmarshalJSON(data []byte) error {
	var raw struct {
		LE    *float64 `json:"le"`
		Count uint64   `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if raw.LE == nil {
		b.UpperBound = math.Inf(1)
	} else {
		b.UpperBound = *raw.LE
	}
	b.Count = raw.Count
	return nil
}

// ExemplarSnapshot is one captured bucket exemplar: the trace that
// most recently (on the virtual clock) observed into the bucket with
// upper bound LE. Only populated buckets export a row. Exemplars are
// JSON-only — the text format predates them and its byte-stable golden
// dumps must not change.
type ExemplarSnapshot struct {
	UpperBound float64       `json:"le"`
	Trace      uint64        `json:"trace"`
	Value      float64       `json:"value"`
	TS         time.Duration `json:"ts_ns"`
}

// MarshalJSON encodes +Inf as null, mirroring BucketSnapshot.
func (e ExemplarSnapshot) MarshalJSON() ([]byte, error) {
	le := "null"
	if !math.IsInf(e.UpperBound, 1) {
		le = jsonFloat(e.UpperBound)
	}
	return []byte(fmt.Sprintf(`{"le":%s,"trace":%d,"value":%s,"ts_ns":%d}`,
		le, e.Trace, jsonFloat(e.Value), int64(e.TS))), nil
}

// UnmarshalJSON decodes null back to +Inf.
func (e *ExemplarSnapshot) UnmarshalJSON(data []byte) error {
	var raw struct {
		LE    *float64 `json:"le"`
		Trace uint64   `json:"trace"`
		Value float64  `json:"value"`
		TS    int64    `json:"ts_ns"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if raw.LE == nil {
		e.UpperBound = math.Inf(1)
	} else {
		e.UpperBound = *raw.LE
	}
	e.Trace = raw.Trace
	e.Value = raw.Value
	e.TS = time.Duration(raw.TS)
	return nil
}

// HistSnapshot is one exported histogram with pre-computed quantiles.
type HistSnapshot struct {
	Name      string             `json:"name"`
	Unit      string             `json:"unit,omitempty"`
	Count     uint64             `json:"count"`
	Sum       float64            `json:"sum"`
	Min       float64            `json:"min"`
	Max       float64            `json:"max"`
	P50       float64            `json:"p50"`
	P90       float64            `json:"p90"`
	P99       float64            `json:"p99"`
	P999      float64            `json:"p999"`
	Buckets   []BucketSnapshot   `json:"buckets"`
	Exemplars []ExemplarSnapshot `json:"exemplars,omitempty"`
}

// Snapshot captures the current state of every instrument. It is safe
// to call concurrently with recording. A nil registry yields an empty
// snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	var snap Snapshot
	for _, c := range r.counters.byName() {
		snap.Counters = append(snap.Counters, CounterSnapshot{Name: c.name, Value: c.inst.Value()})
	}
	for _, g := range r.gauges.byName() {
		snap.Gauges = append(snap.Gauges, GaugeSnapshot{Name: g.name, Value: g.inst.Value()})
	}
	for _, h := range r.histograms.byName() {
		snap.Histograms = append(snap.Histograms, h.inst.snapshot())
	}
	return snap
}

func (h *Histogram) snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	hs := HistSnapshot{
		Name:  h.name,
		Unit:  h.unit,
		Count: h.count,
		Sum:   h.sum,
		Min:   h.min,
		Max:   h.max,
	}
	if h.count > 0 {
		hs.P50 = h.win.percentile(50)
		hs.P90 = h.win.percentile(90)
		hs.P99 = h.win.percentile(99)
		hs.P999 = h.win.percentile(99.9)
	}
	cum := uint64(0)
	for i, n := range h.counts {
		cum += n
		bound := math.Inf(1)
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		hs.Buckets = append(hs.Buckets, BucketSnapshot{UpperBound: bound, Count: cum})
	}
	for i, ex := range h.exemplars {
		if ex.Trace == 0 {
			continue
		}
		bound := math.Inf(1)
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		hs.Exemplars = append(hs.Exemplars, ExemplarSnapshot{
			UpperBound: bound, Trace: ex.Trace, Value: ex.Value, TS: ex.TS,
		})
	}
	return hs
}

// WriteText renders the snapshot in the stable, line-oriented text
// format documented in docs/observability.md. Duration-unit histogram
// values are rendered as time.Durations.
func (s Snapshot) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# fireworks metrics snapshot (virtual time %v)\n",
		time.Duration(s.VirtualTimeNS)); err != nil {
		return err
	}
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "gauge %s %d\n", g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		fv := func(v float64) string { return formatValue(v, h.Unit) }
		if _, err := fmt.Fprintf(w, "histogram %s count=%d sum=%s min=%s p50=%s p90=%s p99=%s p99.9=%s max=%s\n",
			h.Name, h.Count, fv(h.Sum), fv(h.Min), fv(h.P50), fv(h.P90), fv(h.P99), fv(h.P999), fv(h.Max)); err != nil {
			return err
		}
		for _, b := range h.Buckets {
			le := "+Inf"
			if !math.IsInf(b.UpperBound, 1) {
				le = formatValue(b.UpperBound, h.Unit)
			}
			if _, err := fmt.Fprintf(w, "  bucket le=%s %d\n", le, b.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteFormat renders the snapshot in a named format: "text" or
// "json". Every CLI dump flag funnels through this one switch so the
// accepted names and the error text stay identical across commands.
func (s Snapshot) WriteFormat(w io.Writer, format string) error {
	switch format {
	case "text":
		return s.WriteText(w)
	case "json":
		return s.WriteJSON(w)
	default:
		return fmt.Errorf("unknown -metrics format %q (want text or json)", format)
	}
}

// WriteFormat snapshots the registry and renders it in a named format.
func (r *Registry) WriteFormat(w io.Writer, format string) error {
	return r.Snapshot().WriteFormat(w, format)
}

// formatValue renders one histogram value under a unit: duration-unit
// values as time.Duration, everything else as a compact float.
func formatValue(v float64, unit string) string {
	if unit == UnitDuration {
		return time.Duration(int64(math.Round(v))).String()
	}
	return jsonFloat(v)
}

// jsonFloat renders a float compactly: integers without a decimal
// point, everything else with %g.
func jsonFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
