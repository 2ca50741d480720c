package timeseries

import (
	"encoding/csv"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/metrics"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSeriesRingAndWindows(t *testing.T) {
	s := newSeries(4)
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
	d, ok := s.Delta() // baseline is the oldest resident point → 60-30
	if !ok || d != 30 {
		t.Fatalf("delta = %v %v", d, ok)
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
	if _, ok := s.Delta(); ok {
		t.Fatal("nil delta ok")
	}
	one := newSeries(4)
	one.append(ms(1), 5)
	if _, ok := one.Delta(); ok {
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
	h.Observe(float64(5 * time.Millisecond))
	s.Sample(ms(1))
	ctr.Add(2)
	s.Sample(ms(2))

	if d, ok := s.Delta("requests_total"); !ok || d != 2 {
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

	// The memory surface reaches the export: a host's mem_used_bytes
	// gauge is a column, and virtual time rises strictly row by row.
	reg := metrics.NewRegistry()
	host := mem.NewHost(1<<30, 0.6)
	host.Instrument(reg)
	s := NewSampler(reg, 0)
	sp := host.NewSpace("vm")
	for i := 1; i <= 3; i++ {
		sp.AllocPrivate(mem.KindHeap, 16)
		s.Sample(ms(i))
	}
	var sb strings.Builder
	if err := s.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil || len(rows) != 4 || rows[0][0] != "ts_ns" || !slices.Contains(rows[0], "mem_used_bytes") {
		t.Fatalf("memory CSV (%v):\n%s", err, sb.String())
	}
	prev := int64(-1)
	for _, row := range rows[1:] {
		ts, err := strconv.ParseInt(row[0], 10, 64)
		if err != nil || ts <= prev {
			t.Fatalf("ts_ns %q does not rise past %d", row[0], prev)
		}
		prev = ts
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
