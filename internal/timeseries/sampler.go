package timeseries

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// DefaultCapacity is the per-series ring size: at one sample per
// invocation it holds the telemetry of thousands of requests.
const DefaultCapacity = 4096

// probe is a caller-supplied derived quantity sampled alongside the
// registry (sharing efficiency, fleet down-node count, …). errors is
// resolved at its first error, so a healthy probe adds no counter.
type probe struct {
	name   string
	fn     func() float64
	errors *metrics.Counter
}

// binding ties one registry instrument to the series it feeds: a
// counter's or gauge's value, or a histogram's .count, .p50 and .p99.
// A nil series is one the filter drops.
type binding struct {
	c  *metrics.Counter
	g  *metrics.Gauge
	h  *metrics.Histogram
	sr [3]*Series
}

// Sampler snapshots a metrics registry into ring-buffer series on a
// virtual clock. Counters and gauges become one series each under
// their registry name; every histogram yields ".count", ".p50", and
// ".p99" derivative series. Sampling is driven by the owner (after
// each invocation, on a simulated tick, …) — the sampler never touches
// wall time, so the series are as deterministic as the workload.
//
// Each instrument is bound to its series once, at the first Sample
// after its creation (the filter applies then); a Sample reads the
// bound instruments in place.
//
// Safe for concurrent use.
type Sampler struct {
	mu      sync.Mutex
	reg     *metrics.Registry
	cap     int
	series  map[string]*Series
	probes  []probe
	keep    func(name string) bool
	rollups []RollupSpec
	samples *metrics.Counter

	bound      []binding
	nc, ng, nh int   // instruments of each kind bound so far
	walked     int64 // instrument reads over every Sample
}

// NewSampler returns a sampler over reg with the given per-series
// capacity (DefaultCapacity when <= 0). The sampler counts its own
// activity as timeseries_samples_total in the same registry.
func NewSampler(reg *metrics.Registry, capacity int) *Sampler {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Sampler{
		reg:     reg,
		cap:     capacity,
		series:  make(map[string]*Series),
		samples: reg.Counter("timeseries_samples_total"),
	}
}

// SetFilter restricts which registry metrics are recorded: only names
// for which keep returns true get a series. Probes are always kept.
// Call before the first Sample; a nil keep records everything. A later
// call rebinds every instrument at the next Sample.
func (s *Sampler) SetFilter(keep func(name string) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keep = keep
	s.bound, s.nc, s.ng, s.nh = nil, 0, 0, 0
}

// AddProbe samples a derived quantity under the given name on every
// Sample. Probe names must not collide with registry metric names.
func (s *Sampler) AddProbe(name string, fn func() float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.probes = append(s.probes, probe{name: name, fn: fn})
}

// SetRollups attaches downsampling tiers to every series the sampler
// creates from here on (see RollupSpec; DefaultRollups gives the
// 10s/60s tiers). Call before the first Sample so every series is
// tiered; already-created series are unaffected.
func (s *Sampler) SetRollups(specs []RollupSpec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rollups = append([]RollupSpec(nil), specs...)
}

// Sample records every registry instrument and every probe at virtual
// time now. Sampling the same instant twice appends two points; the
// owner's clock discipline decides the cadence.
//
// Probes are fenced: a panicking probe, or one returning NaN/Inf, is
// skipped for that sample and counted as
// timeseries_probe_errors_total{probe} — one bad derived quantity must
// not take the telemetry plane down or poison the CSV timelines.
func (s *Sampler) Sample(now time.Duration) {
	s.samples.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bindLocked()
	s.walked += int64(len(s.bound))
	for _, b := range s.bound {
		switch {
		case b.c != nil:
			b.sr[0].append(now, float64(b.c.Value()))
		case b.g != nil:
			b.sr[0].append(now, float64(b.g.Value()))
		default:
			n, p50, p99 := b.h.Summary()
			b.sr[0].append(now, float64(n))
			b.sr[1].append(now, p50)
			b.sr[2].append(now, p99)
		}
	}
	for i := range s.probes {
		p := &s.probes[i]
		if v, ok := runProbe(p.fn); ok {
			s.seriesLocked(p.name).append(now, v)
			continue
		}
		if p.errors == nil {
			p.errors = s.reg.Counter(metrics.Name("timeseries_probe_errors_total", "probe", p.name))
		}
		p.errors.Inc()
	}
}

// bindLocked binds the instruments created since the last Sample.
func (s *Sampler) bindLocked() {
	cs, gs, hs := s.reg.Instruments()
	for _, c := range cs[s.nc:] {
		s.bindOneLocked(binding{c: c}, c.Name())
	}
	for _, g := range gs[s.ng:] {
		s.bindOneLocked(binding{g: g}, g.Name())
	}
	for _, h := range hs[s.nh:] {
		s.bindOneLocked(binding{h: h}, h.Name()+".count", h.Name()+".p50", h.Name()+".p99")
	}
	s.nc, s.ng, s.nh = len(cs), len(gs), len(hs)
}

// bindOneLocked binds b to the series of the names the filter keeps.
func (s *Sampler) bindOneLocked(b binding, names ...string) {
	for i, name := range names {
		if s.keep == nil || s.keep(name) {
			b.sr[i] = s.seriesLocked(name)
		}
	}
	if b.sr != [3]*Series{} {
		s.bound = append(s.bound, b)
	}
}

// seriesLocked returns the named series, creating it on first use.
func (s *Sampler) seriesLocked(name string) *Series {
	sr := s.series[name]
	if sr == nil {
		sr = newSeriesTiered(name, s.cap, s.rollups)
		s.series[name] = sr
	}
	return sr
}

// Walked counts the instrument reads of every Sample so far: the
// sampler's work, which a benchmark can hold exact.
func (s *Sampler) Walked() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walked
}

// runProbe calls one probe fn, converting panics and non-finite
// results into ok=false.
func runProbe(fn func() float64) (v float64, ok bool) {
	defer func() {
		if recover() != nil {
			v, ok = 0, false
		}
	}()
	v = fn()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false
	}
	return v, true
}

// SamplerStats is the sampler's own memory accounting, reported by
// /telemetry: how much history the plane itself is holding.
type SamplerStats struct {
	Series      int `json:"series"`
	Points      int `json:"points"`
	TierBuckets int `json:"tier_buckets"`
}

// Stats reports resident series, points, and rollup buckets.
func (s *Sampler) Stats() SamplerStats {
	var st SamplerStats
	if s == nil {
		return st
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st.Series = len(s.series)
	for _, sr := range s.series {
		st.Points += sr.Len()
		st.TierBuckets += sr.TierBuckets()
	}
	return st
}

// Rollup returns a copy of one series' rollup buckets at the given
// tier width (nil when absent).
func (s *Sampler) Rollup(name string, width time.Duration) []RollupBucket {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.series[name].Rollup(width)
}

// Names returns every series name, sorted.
func (s *Sampler) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.series))
	for name := range s.series {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SeriesSnapshot is a copied view of one series.
type SeriesSnapshot struct {
	Name   string
	Points []Point
}

// Snapshot returns a copy of every series, sorted by name — the stable
// view the exporters and the watchdog evaluate over.
func (s *Sampler) Snapshot() []SeriesSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SeriesSnapshot, 0, len(s.series))
	for name, sr := range s.series {
		out = append(out, SeriesSnapshot{Name: name, Points: sr.Points()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Delta returns the named series' growth since from (see
// Series.DeltaSince).
func (s *Sampler) Delta(name string, from time.Duration) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.series[name].DeltaSince(from)
}

// Quantile returns the p-quantile of the named series after from.
func (s *Sampler) Quantile(name string, from time.Duration, p float64) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.series[name].Quantile(from, p)
}

// Last returns the newest point of the named series.
func (s *Sampler) Last(name string) (Point, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.series[name].Last()
}

// windowStart converts a sliding window ending at now into the from
// mark the Series methods take: window <= 0 means all of history.
func windowStart(now, window time.Duration) time.Duration {
	if window <= 0 {
		return -1
	}
	return now - window
}

// String implements fmt.Stringer for debugging.
func (s *Sampler) String() string {
	return fmt.Sprintf("timeseries.Sampler(%d series)", len(s.Names()))
}
