// Package timeseries is the virtual-clock history layer over the
// metrics registry: a Sampler periodically folds registry counters,
// gauges, and histogram quantiles — plus caller-supplied probes for
// derived quantities like sharing efficiency — into bounded ring-buffer
// Series, from which all-history deltas are computed and CSV/JSON
// timelines exported. A Watchdog (watchdog.go) evaluates declarative
// SLO rules over the same series on the same clock and emits alert
// events into the causal journal.
//
// Everything here is a pure function of the workload: timestamps come
// from virtual clocks and values from deterministic instruments, so a
// fixed seed reproduces every exported timeline byte for byte — the
// property the memory-timeline experiment asserts.
package timeseries

import (
	"sort"
	"time"
)

// Point is one observation of a series.
type Point struct {
	TS    time.Duration
	Value float64
}

// RollupSpec declares one downsampled retention tier of a series:
// points fold into Width-wide buckets, of which rollupCapacity are
// retained. A 4096-point raw ring sampled once per virtual second plus
// 10s and 60s tiers keeps an hour-long storm's first baseline in
// ~triple the memory of the raw ring alone, instead of 3600x.
type RollupSpec struct {
	Width time.Duration
}

// rollupCapacity is how many buckets every rollup tier retains.
const rollupCapacity = 4096

// DefaultRollups is the 1s→10s→60s tiering: the raw ring is the finest
// tier, these two coarsen it.
func DefaultRollups() []RollupSpec {
	return []RollupSpec{{Width: 10 * time.Second}, {Width: 60 * time.Second}}
}

// RollupBucket is one downsampled bucket: the least of the points
// whose timestamps fell in [Start, Start+Width), which is all a delta's
// baseline reads.
type RollupBucket struct {
	Start time.Duration
	Min   float64
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
			return
		}
	}
	if t.n == len(t.buf) {
		t.start = (t.start + 1) % len(t.buf)
		t.n--
	}
	t.buf[(t.start+t.n)%len(t.buf)] = RollupBucket{Start: bs, Min: v}
	t.n++
}

// Series is a bounded ring of points in ascending timestamp order.
// Appending past capacity drops the oldest point. Series are created
// and owned by a Sampler, which synchronizes access; the read methods
// here assume the caller holds whatever lock guards the series.
//
// A series may carry rollup tiers (finest first): every append also
// folds into each tier, and Delta takes its baseline from the deepest
// tier, which reaches back past what the raw ring still holds.
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
		if sp.Width <= 0 {
			continue
		}
		s.tiers = append(s.tiers, &rollupTier{width: sp.Width, buf: make([]RollupBucket, rollupCapacity)})
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

// baseline returns the oldest retained value: the Min of the first
// bucket of the deepest rollup tier holding data, which is exact for a
// monotonic counter, or without tiers the raw ring's oldest point. The
// series must not be empty.
func (s *Series) baseline() float64 {
	for i := len(s.tiers) - 1; i >= 0; i-- {
		if t := s.tiers[i]; t.n > 0 {
			return t.bucketAt(0).Min
		}
	}
	return s.at(0).Value
}

// Delta returns how much the series grew from its baseline to the
// newest point: the burn-rate numerator for counter-backed series over
// all retained history. ok is false when fewer than two points exist.
func (s *Series) Delta() (float64, bool) {
	last, ok := s.Last()
	if !ok || s.Len() < 2 {
		return 0, false
	}
	return last.Value - s.baseline(), true
}
