package timeseries

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSeriesRingAndWindows(t *testing.T) {
	s := newSeries("x", 4)
	for i := 1; i <= 6; i++ {
		s.append(ms(i), float64(i*10))
	}
	// Capacity 4: points 3..6 remain.
	pts := s.Points()
	if len(pts) != 4 || pts[0].Value != 30 || pts[3].Value != 60 {
		t.Fatalf("ring points = %v", pts)
	}
	last, ok := s.Last()
	if !ok || last.Value != 60 {
		t.Fatalf("last = %v %v", last, ok)
	}
	d, ok := s.DeltaSince(ms(4))
	if !ok || d != 20 { // baseline 40 at t=4ms → 60-40
		t.Fatalf("delta = %v %v", d, ok)
	}
	d, ok = s.DeltaSince(-1) // whole history → 60-30
	if !ok || d != 30 {
		t.Fatalf("full delta = %v %v", d, ok)
	}
	rate, ok := s.RateSince(-1)
	if !ok || rate != 30/0.003 {
		t.Fatalf("rate = %v %v", rate, ok)
	}
	q, ok := s.Quantile(-1, 50)
	if !ok || q != 45 {
		t.Fatalf("p50 = %v %v", q, ok)
	}
	if vals := s.WindowValues(ms(5)); len(vals) != 1 || vals[0] != 60 {
		t.Fatalf("window = %v", vals)
	}
}

func TestSeriesEmptyAndNil(t *testing.T) {
	var s *Series
	if s.Len() != 0 || s.Points() != nil {
		t.Fatal("nil series not empty")
	}
	if _, ok := s.Last(); ok {
		t.Fatal("nil last ok")
	}
	if _, ok := s.DeltaSince(0); ok {
		t.Fatal("nil delta ok")
	}
	one := newSeries("x", 4)
	one.append(ms(1), 5)
	if _, ok := one.DeltaSince(-1); ok {
		t.Fatal("single-point delta should need two points")
	}
}

func TestSamplerRecordsRegistryAndProbes(t *testing.T) {
	reg := metrics.NewRegistry()
	ctr := reg.Counter("requests_total")
	g := reg.Gauge("depth")
	h := reg.Histogram("lat")
	s := NewSampler(reg, 0)
	s.AddProbe("derived", func() float64 { return 42 })

	ctr.Add(3)
	g.Set(7)
	h.ObserveDuration(5 * time.Millisecond)
	s.Sample(ms(1))
	ctr.Add(2)
	s.Sample(ms(2))

	if d, ok := s.Delta("requests_total", -1); !ok || d != 2 {
		t.Fatalf("counter delta = %v %v", d, ok)
	}
	if p, ok := s.Last("depth"); !ok || p.Value != 7 {
		t.Fatalf("gauge = %v %v", p, ok)
	}
	if p, ok := s.Last("lat.count"); !ok || p.Value != 1 {
		t.Fatalf("hist count = %v %v", p, ok)
	}
	if p, ok := s.Last("lat.p99"); !ok || p.Value != float64(5*time.Millisecond) {
		t.Fatalf("hist p99 = %v %v", p, ok)
	}
	if p, ok := s.Last("derived"); !ok || p.Value != 42 {
		t.Fatalf("probe = %v %v", p, ok)
	}
	// The sampler's own counter is itself sampled.
	if p, ok := s.Last("timeseries_samples_total"); !ok || p.Value != 2 {
		t.Fatalf("self counter = %v %v", p, ok)
	}
}

func TestSamplerFilter(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("keep_me").Inc()
	reg.Counter("drop_me").Inc()
	s := NewSampler(reg, 0)
	s.SetFilter(func(name string) bool { return strings.HasPrefix(name, "keep") })
	s.AddProbe("probe", func() float64 { return 1 })
	s.Sample(ms(1))
	names := s.Names()
	if len(names) != 2 || names[0] != "keep_me" || names[1] != "probe" {
		t.Fatalf("filtered names = %v", names)
	}
}

func TestCSVExportDeterministicAndAligned(t *testing.T) {
	build := func() *Sampler {
		reg := metrics.NewRegistry()
		c := reg.Counter("a_total")
		g := reg.Gauge("b_gauge")
		s := NewSampler(reg, 0)
		for i := 1; i <= 3; i++ {
			c.Inc()
			g.Set(int64(i * 100))
			s.Sample(ms(i))
		}
		return s
	}
	var one, two strings.Builder
	if err := build().WriteCSV(&one); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteCSV(&two); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Fatalf("CSV not byte-identical:\n%s\nvs\n%s", one.String(), two.String())
	}
	lines := strings.Split(strings.TrimSpace(one.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV rows = %d:\n%s", len(lines), one.String())
	}
	if lines[0] != "ts_ns,a_total,b_gauge,timeseries_samples_total" {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if lines[1] != "1000000,1,100,1" {
		t.Fatalf("CSV first row = %q", lines[1])
	}
}

func TestCSVExportSparseSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewSampler(reg, 0)
	s.AddProbe("p", func() float64 { return 1 })
	s.Sample(ms(1))
	// A probe added later leaves empty cells for earlier rows.
	s.AddProbe("q", func() float64 { return 2.5 })
	s.Sample(ms(2))
	var sb strings.Builder
	if err := s.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "p,q,timeseries_samples_total\n1000000,1,,1\n2000000,1,2.5,2\n"
	if got := sb.String(); got != "ts_ns,"+want {
		t.Fatalf("sparse CSV = %q", got)
	}
}

func TestJSONExportParsesAndMatchesFormat(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("a_total").Inc()
	s := NewSampler(reg, 0)
	s.Sample(ms(1))
	var sb strings.Builder
	if err := s.WriteFormat(&sb, "json"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"name": "a_total"`, `"1000000"`, `"series"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("json export missing %q:\n%s", want, out)
		}
	}
	if err := s.WriteFormat(&sb, "yaml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestSeriesQuantileEdgeCases(t *testing.T) {
	// Empty series: no quantile, ok=false, value stays zero.
	empty := newSeries("empty", 4)
	if v, ok := empty.Quantile(-1, 99); ok || v != 0 {
		t.Errorf("empty series quantile = %v, %v; want 0, false", v, ok)
	}

	s := newSeries("lat", 8)
	s.append(ms(10), 100)
	s.append(ms(20), 200)
	s.append(ms(30), 300)

	// Window entirely after the last sample: empty window, ok=false.
	if v, ok := s.Quantile(ms(30), 99); ok || v != 0 {
		t.Errorf("post-window quantile = %v, %v; want 0, false", v, ok)
	}

	// Single sample in the window: every quantile is that sample.
	for _, p := range []float64{0, 50, 99, 100} {
		if v, ok := s.Quantile(ms(20), p); !ok || v != 300 {
			t.Errorf("single-sample p%v = %v, %v; want 300, true", p, v, ok)
		}
	}

	// Window opening entirely before the first sample (including a
	// negative from) covers the whole series.
	for _, from := range []time.Duration{-1, 0, ms(5)} {
		if v, ok := s.Quantile(from, 50); !ok || v != 200 {
			t.Errorf("full-window (from=%v) p50 = %v, %v; want 200, true", from, v, ok)
		}
	}

	// Out-of-range and NaN percentiles clamp instead of panicking:
	// NaN used to fail both range guards and index the sorted slice
	// with a garbage rank.
	if v, ok := s.Quantile(-1, math.NaN()); !ok || v != 100 {
		t.Errorf("NaN percentile = %v, %v; want min (100), true", v, ok)
	}
	if v, ok := s.Quantile(-1, -5); !ok || v != 100 {
		t.Errorf("p(-5) = %v, %v; want min (100), true", v, ok)
	}
	if v, ok := s.Quantile(-1, 250); !ok || v != 300 {
		t.Errorf("p250 = %v, %v; want max (300), true", v, ok)
	}
}
