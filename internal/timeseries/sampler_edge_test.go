package timeseries

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// Satellite coverage: probe error paths. A panicking probe or one
// returning a non-finite value is skipped and counted, and the other
// probes still sample.
func TestProbeErrorsAreFencedAndCounted(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewSampler(reg, 16)
	s.AddProbe("good", func() float64 { return 1 })
	s.AddProbe("panics", func() float64 { panic("probe broke") })
	s.AddProbe("nan", func() float64 { return math.NaN() })
	s.AddProbe("inf", func() float64 { return math.Inf(1) })
	s.AddProbe("also_good", func() float64 { return 2 })

	for i := 0; i < 3; i++ {
		s.Sample(time.Duration(i) * time.Second)
	}
	if p, ok := s.Last("good"); !ok || p.Value != 1 {
		t.Fatalf("good probe lost: %+v ok=%v", p, ok)
	}
	if p, ok := s.Last("also_good"); !ok || p.Value != 2 {
		t.Fatalf("probe after the panicking one lost: %+v ok=%v", p, ok)
	}
	for _, bad := range []string{"panics", "nan", "inf"} {
		if _, ok := s.Last(bad); ok {
			t.Fatalf("broken probe %q produced points", bad)
		}
		got := reg.Counter(metrics.Name("timeseries_probe_errors_total", "probe", bad)).Value()
		if got != 3 {
			t.Fatalf("probe_errors{%s} = %d, want 3", bad, got)
		}
	}
	if got := reg.Counter(metrics.Name("timeseries_probe_errors_total", "probe", "good")).Value(); got != 0 {
		t.Fatalf("healthy probe counted errors: %d", got)
	}
}

// Satellite coverage: the Sampler read methods on a series that does
// not exist are ok=false, not a panic.
func TestSamplerUnknownSeries(t *testing.T) {
	s := NewSampler(metrics.NewRegistry(), 16)
	if _, ok := s.Delta("missing"); ok {
		t.Fatal("Delta on unknown series reported ok")
	}
	if _, ok := s.Last("missing"); ok {
		t.Fatal("Last on unknown series reported ok")
	}
}

// Satellite coverage: CSV export of an empty sampler and of
// single-point series.
func TestWriteCSVEmptyAndSinglePoint(t *testing.T) {
	empty := NewSampler(metrics.NewRegistry(), 16)
	var buf bytes.Buffer
	if err := empty.WriteCSV(&buf); err != nil {
		t.Fatalf("empty CSV: %v", err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 1 || lines[0] != "ts_ns" {
		t.Fatalf("empty CSV = %q", buf.String())
	}

	reg := metrics.NewRegistry()
	single := NewSampler(reg, 16)
	single.AddProbe("one", func() float64 { return 42 })
	single.Sample(time.Millisecond)
	buf.Reset()
	if err := single.WriteCSV(&buf); err != nil {
		t.Fatalf("single-point CSV: %v", err)
	}
	got := buf.String()
	lines = strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("single-point CSV has %d lines:\n%s", len(lines), got)
	}
	if !strings.Contains(lines[0], "one") {
		t.Fatalf("header missing series: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1000000,") || !strings.Contains(lines[1], "42") {
		t.Fatalf("single-point row = %q", lines[1])
	}
}
