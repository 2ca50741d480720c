package timeseries

import (
	"testing"
	"time"

	"repro/internal/metrics"
)

// A tiered series keeps its all-history Delta exact after the raw ring
// has wrapped: the baseline comes from the deepest tier.
func TestRollupKeepsLongWindowsAnswerable(t *testing.T) {
	// Raw ring of 16 points, 10s + 60s tiers: a 1000-sample storm at
	// 1s cadence retains only the last 16s raw.
	s := newSeriesTiered(16, DefaultRollups())
	for i := 0; i < 1000; i++ {
		// A counter growing by 2 per virtual second.
		s.append(time.Duration(i)*time.Second, float64(2*i))
	}
	if s.Len() != 16 {
		t.Fatalf("raw ring holds %d, want 16", s.Len())
	}
	// The baseline is the deepest tier's oldest bucket (Start, Min).
	// The 60s tier retains all 1000s of history, so the delta spans the
	// whole run, though the raw ring starts at t=984s.
	delta, ok := s.Delta()
	if !ok || delta != 2*999 {
		t.Fatalf("tier-backed delta = %.0f ok=%v, want %d", delta, ok, 2*999)
	}
}

func TestRollupBucketAggregates(t *testing.T) {
	s := newSeriesTiered(8, []RollupSpec{{Width: 10 * time.Second}})
	s.append(1*time.Second, 5)
	s.append(2*time.Second, 1)
	s.append(9*time.Second, 3)
	s.append(11*time.Second, 7) // next bucket
	tier := s.tiers[0]
	if tier.n != 2 {
		t.Fatalf("buckets = %d, want 2", tier.n)
	}
	b := tier.at(0)
	if b.Start != 0 || b.Min != 1 {
		t.Fatalf("bucket 0 = %+v", b)
	}
	if b1 := tier.at(1); b1.Start != 10*time.Second || b1.Min != 7 {
		t.Fatalf("bucket 1 = %+v", b1)
	}
	if s.TierBuckets() != 2 {
		t.Fatalf("TierBuckets = %d", s.TierBuckets())
	}
}

// A tier keeps its last 4096 buckets: once it wraps, the baseline is
// the oldest bucket still resident.
func TestRollupTierWraps(t *testing.T) {
	s := newSeriesTiered(16, []RollupSpec{{Width: 10 * time.Second}})
	// 5000 ten-second buckets at 1s cadence: the first 904 fall off.
	for i := 0; i < 50000; i++ {
		s.append(time.Duration(i)*time.Second, float64(2*i))
	}
	if got := s.TierBuckets(); got != 4096 {
		t.Fatalf("tier holds %d buckets, want 4096", got)
	}
	if b := s.tiers[0].at(0); b.Start != 9040*time.Second || b.Min != 2*9040 {
		t.Fatalf("oldest bucket = %+v, want the one at 9040s", b)
	}
	if delta, ok := s.Delta(); !ok || delta != 2*(49999-9040) {
		t.Fatalf("delta = %.0f ok=%v, want %d", delta, ok, 2*(49999-9040))
	}
}

// Without tiers the baseline is the raw ring's oldest point.
func TestUntieredSeriesUnchanged(t *testing.T) {
	s := newSeries(4)
	for i := 0; i < 10; i++ {
		s.append(time.Duration(i)*time.Second, float64(i))
	}
	// Baseline clamps to the oldest resident point.
	d, ok := s.Delta()
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
	// The raw ring (8 points) lost t<92s; the 60s tier still holds the
	// first sample, so the delta spans all 100 (1 → 100).
	if d, ok := s.Delta("ticks_total"); !ok || d != 99 {
		t.Fatalf("tiered delta = %.0f ok=%v, want 99", d, ok)
	}
}
