// Package timeseries is the virtual-clock history layer over the
// metrics registry: a Sampler periodically folds registry counters,
// gauges, and histogram quantiles — plus caller-supplied probes for
// derived quantities like sharing efficiency — into bounded ring-buffer
// Series, from which deltas, rates, and sliding-window percentiles are
// computed and CSV/JSON timelines exported. A Watchdog (watchdog.go)
// evaluates declarative SLO rules over the same series on the same
// clock and emits alert events into the causal journal.
//
// Everything here is a pure function of the workload: timestamps come
// from virtual clocks and values from deterministic instruments, so a
// fixed seed reproduces every exported timeline byte for byte — the
// property the memory-timeline experiment asserts.
package timeseries

import (
	"sort"
	"time"

	"repro/internal/stats"
)

// Point is one observation of a series.
type Point struct {
	TS    time.Duration
	Value float64
}

// RollupSpec declares one downsampled retention tier of a series:
// points fold into Width-wide buckets, of which Capacity are retained.
// A 4096-point raw ring sampled once per virtual second plus 10s and
// 60s tiers keeps an hour-long storm answerable in ~triple the memory
// of the raw ring alone, instead of 3600x.
type RollupSpec struct {
	Width    time.Duration
	Capacity int
}

// DefaultRollups is the 1s→10s→60s tiering of the ISSUE: the raw ring
// is the finest tier, these two coarsen it.
func DefaultRollups() []RollupSpec {
	return []RollupSpec{
		{Width: 10 * time.Second, Capacity: 4096},
		{Width: 60 * time.Second, Capacity: 4096},
	}
}

// RollupBucket is one downsampled bucket: min/max/sum/count of the
// points whose timestamps fell in [Start, Start+Width).
type RollupBucket struct {
	Start time.Duration
	Min   float64
	Max   float64
	Sum   float64
	Count int64
}

// rollupTier is one bounded ring of rollup buckets.
type rollupTier struct {
	width time.Duration
	buf   []RollupBucket
	start int
	n     int
}

func (t *rollupTier) bucketAt(i int) RollupBucket { return t.buf[(t.start+i)%len(t.buf)] }

func (t *rollupTier) fold(ts time.Duration, v float64) {
	bs := ts - ts%t.width
	if t.n > 0 {
		last := &t.buf[(t.start+t.n-1)%len(t.buf)]
		if last.Start == bs {
			if v < last.Min {
				last.Min = v
			}
			if v > last.Max {
				last.Max = v
			}
			last.Sum += v
			last.Count++
			return
		}
	}
	if t.n == len(t.buf) {
		t.start = (t.start + 1) % len(t.buf)
		t.n--
	}
	t.buf[(t.start+t.n)%len(t.buf)] = RollupBucket{Start: bs, Min: v, Max: v, Sum: v, Count: 1}
	t.n++
}

// Series is a bounded ring of points in ascending timestamp order.
// Appending past capacity drops the oldest point. Series are created
// and owned by a Sampler, which synchronizes access; the read methods
// here assume the caller holds whatever lock guards the series.
//
// A series may carry rollup tiers (finest first): every append also
// folds into each tier, and the window reads — baselineBefore,
// WindowValues, and therefore DeltaSince/Quantile — fall
// back to tier buckets for the part of a window the raw ring no longer
// covers. Tier reads are approximations with documented shape: a
// bucket contributes its Min as the baseline value (exact for
// monotonic counters) and its Min and Max as window values (brackets
// the true distribution).
type Series struct {
	name  string
	buf   []Point
	start int
	n     int
	tiers []*rollupTier // finest first; nil without rollups
}

func newSeries(name string, capacity int) *Series {
	return &Series{name: name, buf: make([]Point, capacity)}
}

func newSeriesTiered(name string, capacity int, specs []RollupSpec) *Series {
	s := newSeries(name, capacity)
	for _, sp := range specs {
		if sp.Width <= 0 || sp.Capacity <= 0 {
			continue
		}
		s.tiers = append(s.tiers, &rollupTier{width: sp.Width, buf: make([]RollupBucket, sp.Capacity)})
	}
	sort.Slice(s.tiers, func(i, j int) bool { return s.tiers[i].width < s.tiers[j].width })
	return s
}

// TierBuckets reports how many rollup buckets are resident across all
// tiers — the memory accounting /telemetry reports.
func (s *Series) TierBuckets() int {
	if s == nil {
		return 0
	}
	total := 0
	for _, t := range s.tiers {
		total += t.n
	}
	return total
}

// Len reports how many points are resident.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// append adds a point; a nil series (filtered out) takes none.
func (s *Series) append(ts time.Duration, v float64) {
	if s == nil {
		return
	}
	if s.n == len(s.buf) {
		s.start = (s.start + 1) % len(s.buf)
		s.n--
	}
	s.buf[(s.start+s.n)%len(s.buf)] = Point{TS: ts, Value: v}
	s.n++
	for _, t := range s.tiers {
		t.fold(ts, v)
	}
}

func (s *Series) at(i int) Point { return s.buf[(s.start+i)%len(s.buf)] }

// Points returns a copy of the resident points, oldest first.
func (s *Series) Points() []Point {
	if s == nil {
		return nil
	}
	out := make([]Point, 0, s.n)
	for i := 0; i < s.n; i++ {
		out = append(out, s.at(i))
	}
	return out
}

// Last returns the newest point (ok=false when empty).
func (s *Series) Last() (Point, bool) {
	if s.Len() == 0 {
		return Point{}, false
	}
	return s.at(s.n - 1), true
}

// baselineBefore returns the newest point with TS <= from. When the
// window start predates the raw ring it consults the rollup tiers
// (finest first) — a bucket's baseline is (Start, Min), exact for
// monotonic counters — and only past all tier history falls back to
// the oldest resident point.
func (s *Series) baselineBefore(from time.Duration) (Point, bool) {
	if s.Len() == 0 {
		return Point{}, false
	}
	base := s.at(0)
	if base.TS > from {
		if p, ok := s.tierBaseline(from); ok {
			return p, true
		}
	}
	for i := 0; i < s.n; i++ {
		p := s.at(i)
		if p.TS > from {
			break
		}
		base = p
	}
	return base, true
}

// tierBaseline finds the newest rollup bucket with Start <= from,
// preferring finer tiers; when from predates every bucket it returns
// the oldest bucket of the deepest tier with data.
func (s *Series) tierBaseline(from time.Duration) (Point, bool) {
	for _, t := range s.tiers {
		if t.n == 0 || t.bucketAt(0).Start > from {
			continue
		}
		best := t.bucketAt(0)
		for i := 0; i < t.n; i++ {
			b := t.bucketAt(i)
			if b.Start > from {
				break
			}
			best = b
		}
		return Point{TS: best.Start, Value: best.Min}, true
	}
	for i := len(s.tiers) - 1; i >= 0; i-- {
		if t := s.tiers[i]; t.n > 0 {
			b := t.bucketAt(0)
			return Point{TS: b.Start, Value: b.Min}, true
		}
	}
	return Point{}, false
}

// DeltaSince returns how much the series grew between the baseline at
// (or before) from and the newest point — the burn-rate numerator for
// counter-backed series. ok is false when fewer than two points exist.
func (s *Series) DeltaSince(from time.Duration) (float64, bool) {
	last, ok := s.Last()
	if !ok || s.Len() < 2 {
		return 0, false
	}
	base, _ := s.baselineBefore(from)
	return last.Value - base.Value, true
}

// WindowValues returns the values of every point with from < TS, oldest
// first (the whole series when from is negative). The part of the
// window the raw ring no longer covers is filled from rollup tiers:
// each contributing bucket adds its Min and Max, bracketing the true
// values at 2 points per bucket.
func (s *Series) WindowValues(from time.Duration) []float64 {
	if s.Len() == 0 {
		return nil
	}
	var out []float64
	if oldest := s.at(0).TS; len(s.tiers) > 0 && oldest > from {
		out = s.tierWindowValues(from, oldest)
	}
	for i := 0; i < s.n; i++ {
		p := s.at(i)
		if p.TS > from {
			out = append(out, p.Value)
		}
	}
	return out
}

// tierWindowValues covers (from, cut) from the rollup tiers: finer
// tiers claim the newest part of the gap, coarser tiers only the span
// finer ones no longer retain, so no region is double-counted.
func (s *Series) tierWindowValues(from, cut time.Duration) []float64 {
	limit := cut
	var segs [][]float64
	for _, t := range s.tiers {
		if t.n == 0 {
			continue
		}
		var vals []float64
		earliest := limit
		for i := 0; i < t.n; i++ {
			b := t.bucketAt(i)
			if b.Start <= from || b.Start >= limit {
				continue
			}
			vals = append(vals, b.Min, b.Max)
			if b.Start < earliest {
				earliest = b.Start
			}
		}
		if len(vals) > 0 {
			segs = append(segs, vals)
			limit = earliest
		}
	}
	// Assemble oldest-first: the coarsest contributing tier holds the
	// oldest span.
	var out []float64
	for i := len(segs) - 1; i >= 0; i-- {
		out = append(out, segs[i]...)
	}
	return out
}

// Quantile returns the p-quantile (0..100) of the values observed after
// from, using the same percentile math as the metrics histograms.
func (s *Series) Quantile(from time.Duration, p float64) (float64, bool) {
	vals := s.WindowValues(from)
	if len(vals) == 0 {
		return 0, false
	}
	return stats.Percentile(vals, p), true
}
