package timeseries

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
	"unsafe"

	"repro/internal/metrics"
)

// DefaultCapacity is the per-series ring size RingBudgetBytes buys:
// 4,096 points, which at the gateway's one sample per virtual second
// is over an hour of its timeline.
const DefaultCapacity = RingBudgetBytes / int(unsafe.Sizeof(Point{}))

// probe is a caller-supplied derived quantity sampled alongside the
// registry (sharing efficiency, fleet down-node count, …). errors is
// resolved at its first error, so a healthy probe adds no counter;
// lastErr is what its most recent failure was.
type probe struct {
	name    string
	fn      func() float64
	errors  *metrics.Counter
	lastErr string
}

// binding ties one registry instrument to the series it feeds: a
// counter's or gauge's value, or a histogram's .count, .p50 and .p99.
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
// after its creation; a Sample reads the bound instruments in place.
//
// Safe for concurrent use.
type Sampler struct {
	mu      sync.Mutex
	reg     *metrics.Registry
	cap     int
	series  map[string]*Series
	probes  []probe
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
// not take the telemetry plane down or poison the CSV timelines. What
// it failed with last is kept for Stats.
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
		v, fault := runProbe(p.fn)
		if fault == "" {
			s.seriesLocked(p.name).append(now, v)
			continue
		}
		if p.errors == nil {
			p.errors = s.reg.Counter(metrics.Name("timeseries_probe_errors_total", "probe", p.name))
		}
		p.errors.Inc()
		p.lastErr = fault
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

// bindOneLocked binds b to the series of names.
func (s *Sampler) bindOneLocked(b binding, names ...string) {
	for i, name := range names {
		b.sr[i] = s.seriesLocked(name)
	}
	s.bound = append(s.bound, b)
}

// seriesLocked returns the named series, creating it on first use.
func (s *Sampler) seriesLocked(name string) *Series {
	sr := s.series[name]
	if sr == nil {
		sr = newSeriesTiered(s.cap, s.rollups)
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

// runProbe calls one probe fn. fault is empty when it returned a
// finite value, and otherwise says what went wrong: the recovered
// panic value, or the non-finite result.
func runProbe(fn func() float64) (v float64, fault string) {
	defer func() {
		if r := recover(); r != nil {
			v, fault = 0, fmt.Sprintf("panic: %v", r)
		}
	}()
	v = fn()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Sprintf("non-finite result %v", v)
	}
	return v, ""
}

// SamplerStats is the sampler's own accounting, reported by
// /telemetry: how much history the plane itself is holding, in bytes
// against what its rings are allocated (RingBudgetBytes per ring), and
// which probes have failed.
type SamplerStats struct {
	Series        int          `json:"series"`
	Points        int          `json:"points"`
	TierBuckets   int          `json:"tier_buckets"`
	ResidentBytes int          `json:"resident_bytes"`
	BudgetBytes   int          `json:"budget_bytes"`
	ProbeErrors   []ProbeError `json:"probe_errors,omitempty"`
}

// ProbeError is one failing probe: its error counter, the counter's
// value, and what the probe failed with last.
type ProbeError struct {
	Counter string `json:"counter"`
	Count   int64  `json:"count"`
	Last    string `json:"last"`
}

// Stats reports resident series, points, rollup buckets and ring
// bytes, and every probe that has failed.
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
		resident, budget := sr.bytes()
		st.ResidentBytes += resident
		st.BudgetBytes += budget
	}
	for _, p := range s.probes {
		if p.errors != nil {
			st.ProbeErrors = append(st.ProbeErrors, ProbeError{Counter: p.errors.Name(), Count: p.errors.Value(), Last: p.lastErr})
		}
	}
	return st
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

// Delta returns the named series' growth over all retained history
// (see Series.Delta).
func (s *Sampler) Delta(name string) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.series[name].Delta()
}

// Last returns the newest point of the named series.
func (s *Sampler) Last(name string) (Point, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.series[name].Last()
}
