package timeseries

import (
	"testing"
	"time"

	"repro/internal/metrics"
)

// A tiered series keeps DeltaSince/Quantile answerable after the raw
// ring has wrapped: the window falls back to rollup buckets.
func TestRollupKeepsLongWindowsAnswerable(t *testing.T) {
	// Raw ring of 16 points, 10s + 60s tiers: a 1000-sample storm at
	// 1s cadence retains only the last 16s raw.
	s := newSeriesTiered("reqs", 16, []RollupSpec{
		{Width: 10 * time.Second, Capacity: 64},
		{Width: 60 * time.Second, Capacity: 64},
	})
	for i := 0; i < 1000; i++ {
		// A counter growing by 2 per virtual second.
		s.append(time.Duration(i)*time.Second, float64(2*i))
	}
	if s.Len() != 16 {
		t.Fatalf("raw ring holds %d, want 16", s.Len())
	}
	// Delta over the last 500s: the baseline at t=499s predates the raw
	// ring (which starts at t=984s) and resolves via the 10s tier.
	grown, ok := s.DeltaSince(499 * time.Second)
	if !ok {
		t.Fatal("DeltaSince unanswerable over tiered history")
	}
	// Bucket baseline is (bucketStart, Min): growth 2/s over ~500s,
	// within one bucket width of rounding.
	if grown < 2*490 || grown > 2*510 {
		t.Fatalf("tier-backed delta = %.0f, want ~1000", grown)
	}
	// Delta over everything: baseline is the deepest tier's oldest
	// bucket. The 60s tier retains 64 buckets = all 1000s of history,
	// so the delta spans the whole run.
	delta, ok := s.DeltaSince(-1)
	if !ok || delta != 2*999 {
		t.Fatalf("tier-backed delta = %.0f ok=%v, want %d", delta, ok, 2*999)
	}
	// Quantile over the long window draws on bucket min/max brackets.
	q, ok := s.Quantile(400*time.Second, 50)
	if !ok {
		t.Fatal("Quantile unanswerable over tiered history")
	}
	if q < float64(2*400) || q > float64(2*999) {
		t.Fatalf("tier-backed p50 = %.0f outside window value range", q)
	}
}

func TestRollupBucketAggregates(t *testing.T) {
	s := newSeriesTiered("lat", 8, []RollupSpec{{Width: 10 * time.Second, Capacity: 8}})
	s.append(1*time.Second, 5)
	s.append(2*time.Second, 1)
	s.append(9*time.Second, 3)
	s.append(11*time.Second, 7) // next bucket
	tier := s.tiers[0]
	if tier.n != 2 {
		t.Fatalf("buckets = %d, want 2", tier.n)
	}
	b := tier.bucketAt(0)
	if b.Start != 0 || b.Min != 1 || b.Max != 5 || b.Sum != 9 || b.Count != 3 {
		t.Fatalf("bucket 0 = %+v", b)
	}
	if b1 := tier.bucketAt(1); b1.Start != 10*time.Second || b1.Count != 1 {
		t.Fatalf("bucket 1 = %+v", b1)
	}
	if s.TierBuckets() != 2 {
		t.Fatalf("TierBuckets = %d", s.TierBuckets())
	}
}

// Without tiers, behavior is exactly the PR 5 semantics — the golden
// tests pin the exports; this pins the window fallback staying off.
func TestUntieredSeriesUnchanged(t *testing.T) {
	s := newSeries("x", 4)
	for i := 0; i < 10; i++ {
		s.append(time.Duration(i)*time.Second, float64(i))
	}
	// Baseline clamps to the oldest resident point.
	d, ok := s.DeltaSince(0)
	if !ok || d != 3 {
		t.Fatalf("untiered delta = %.0f ok=%v, want 3", d, ok)
	}
	if s.TierBuckets() != 0 || len(s.tiers) != 0 {
		t.Fatal("untiered series grew tiers")
	}
}

func TestSamplerSetRollups(t *testing.T) {
	reg := metrics.NewRegistry()
	c := reg.Counter("ticks_total")
	s := NewSampler(reg, 8)
	s.SetRollups(DefaultRollups())
	for i := 0; i < 100; i++ {
		c.Inc()
		s.Sample(time.Duration(i) * time.Second)
	}
	st := s.Stats()
	if st.Series == 0 || st.Points == 0 || st.TierBuckets == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The raw ring (8 points) lost t<92s; the 10s tier answers a
	// 90s-deep delta anyway.
	d, ok := s.Delta("ticks_total", 5*time.Second)
	if !ok {
		t.Fatal("tiered sampler delta unanswerable")
	}
	if d < 85 || d > 100 {
		t.Fatalf("tiered delta = %.0f, want ~95", d)
	}
}
