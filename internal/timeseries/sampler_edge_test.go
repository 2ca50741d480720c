package timeseries

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
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

// A failing probe's last fault is kept: Stats lists the probe by its
// error counter with the count and the recovered panic value or the
// non-finite result, and a healthy probe is not listed.
func TestProbeErrorsKeepTheLastFault(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewSampler(reg, 16)
	calls := 0
	s.AddProbe("good", func() float64 { return 1 })
	s.AddProbe("flaky", func() float64 {
		if calls++; calls == 3 {
			return math.Inf(-1)
		}
		panic(fmt.Sprintf("probe broke on call %d", calls))
	})
	if st := s.Stats(); st.ProbeErrors != nil {
		t.Fatalf("probe errors before any sample: %+v", st.ProbeErrors)
	}
	for i := 0; i < 4; i++ {
		s.Sample(time.Duration(i) * time.Second)
		want := []ProbeError{{
			Counter: metrics.Name("timeseries_probe_errors_total", "probe", "flaky"),
			Count:   int64(i + 1),
			Last:    fmt.Sprintf("panic: probe broke on call %d", i+1),
		}}
		if i == 2 {
			want[0].Last = "non-finite result -Inf"
		}
		if got := s.Stats().ProbeErrors; !reflect.DeepEqual(got, want) {
			t.Fatalf("after sample %d: probe errors = %+v, want %+v", i, got, want)
		}
	}
}

// A ring's buffer is allocated whole with its series: the budget is
// fixed from the first sample on, the bytes of history held fill up to
// it and stop there once the ring wraps in place.
func TestRingsFillTheirBudget(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("ticks_total")
	s := NewSampler(reg, 64)
	s.SetRollups([]RollupSpec{{Width: 10 * time.Second}})
	// Two series (ticks_total, timeseries_samples_total), each a 64-point
	// raw ring and a tier of rollupCapacity buckets, 16 bytes an entry.
	budget := 2 * 16 * (64 + rollupCapacity)
	var last int
	for i := 0; i < 5000; i++ {
		s.Sample(time.Duration(i) * time.Second)
		st := s.Stats()
		if st.BudgetBytes != budget || st.ResidentBytes > budget {
			t.Fatalf("after %d samples: %d resident bytes, %d budget bytes, want <= %d of %d",
				i+1, st.ResidentBytes, st.BudgetBytes, budget, budget)
		}
		if i == 0 && st.ResidentBytes != 2*16*(1+1) {
			t.Fatalf("one sample holds %d bytes, want one point and one bucket per series", st.ResidentBytes)
		}
		last = st.ResidentBytes
	}
	// 5000 s at 10 s buckets: 500 buckets; the raw rings are full.
	if want := 2 * 16 * (64 + 500); last != want {
		t.Fatalf("resident bytes = %d, want %d", last, want)
	}
	if p := s.Snapshot()[0].Points; len(p) != 64 || p[0].TS != 4936*time.Second {
		t.Fatalf("raw ring holds %d points from %v, want 64 from 4936s", len(p), p[0].TS)
	}
}
