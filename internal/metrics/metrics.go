// Package metrics is the platform-wide measurement substrate: a
// concurrency-safe registry of named counters, gauges, and fixed-bucket
// histograms that every layer of the simulated stack (hypervisor,
// memory, message bus, snapshot store, platforms, cluster) reports
// into. The paper's argument is quantitative — Figures 6-12 decompose
// invocation latency and memory sharing — and this package gives every
// experiment an aggregate, queryable view of those quantities:
// snapshot restores, JIT hits, CoW faults, queue dwell, placement
// decisions.
//
// Timestamps are virtual (internal/vclock), so a metrics snapshot is a
// pure function of the workload. Percentile math reuses
// internal/stats's interpolation over retained raw samples, so
// histogram quantiles are exact up to the sample window.
//
// Instruments are nil-safe: every method works on a nil receiver as a
// no-op, and a nil *Registry hands out nil instruments. Components can
// therefore record unconditionally and stay zero-cost when a host is
// built without a registry.
//
// Lookups resolve through a frozen copy-on-write read index: one
// atomic pointer load plus a map access, no lock traffic at all —
// instruments are created once and live forever, which is exactly the
// read-mostly shape that layout serves. A create takes the kind's one
// mutex and publishes a copy of the index with the new name added; the
// index also lists the instruments in name order, which exports walk,
// and in creation order, which a sampler walks (Instruments).
package metrics

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vclock"
)

// UnitDuration marks a histogram whose observations are virtual-time
// durations in nanoseconds; exporters render them as time.Duration.
const UnitDuration = "ns"

// maxSamples bounds the raw-sample window a histogram retains for
// exact percentiles. Past the bound the window wraps (a deterministic
// ring), so quantiles describe the most recent maxSamples
// observations (see window.go).
const maxSamples = 1 << 16

// DefaultLatencyBuckets are the fixed upper bounds (in nanoseconds)
// used by duration histograms, spanning the paper's measured range:
// tens of microseconds (warm isolate starts) to seconds (OpenWhisk
// cold starts and installs).
func DefaultLatencyBuckets() []float64 {
	return []float64{
		float64(100 * time.Microsecond),
		float64(300 * time.Microsecond),
		float64(1 * time.Millisecond),
		float64(3 * time.Millisecond),
		float64(10 * time.Millisecond),
		float64(30 * time.Millisecond),
		float64(100 * time.Millisecond),
		float64(300 * time.Millisecond),
		float64(1 * time.Second),
		float64(3 * time.Second),
		float64(10 * time.Second),
	}
}

// Registry is a concurrency-safe collection of named instruments.
// Instruments are created on first use and live for the registry's
// lifetime. It holds locks, so share it by pointer (NewRegistry).
type Registry struct {
	clockMu sync.RWMutex
	clock   *vclock.Clock

	counters   table[Counter]
	gauges     table[Gauge]
	histograms table[Histogram]

	// card is the cardinality governor (cardinality.go); its zero
	// value leaves every family unbounded.
	card cardinality
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// table is the name space of one instrument kind. Instruments are
// created once and live forever, so a create (serialized by mu)
// publishes a new immutable index, and readers never lock.
type table[T any] struct {
	mu  sync.Mutex
	idx atomic.Pointer[index[T]]
}

// index is one published state of a table: every name, aliases
// included (see cardinality.go), and each instrument once in creation
// order and in name order. A create appends to created in place, past
// the length any reader has loaded.
type index[T any] struct {
	byKey   map[string]*T
	created []*T
	byName  []named[T]
}

type named[T any] struct {
	name string
	inst *T
}

func (t *table[T]) load() index[T] {
	if x := t.idx.Load(); x != nil {
		return *x
	}
	return index[T]{}
}

// get returns the named instrument, or nil when it does not exist yet.
func (t *table[T]) get(name string) *T { return t.load().byKey[name] }

// create returns the named instrument, making it with mk on first use.
// When the name's family is over its cardinality budget the name
// becomes an alias of the family's shared overflow series, so repeat
// lookups of a redirected name still hit the read index.
func (t *table[T]) create(r *Registry, name string, mk func(name string) *T) *T {
	t.mu.Lock()
	if v := t.get(name); v != nil {
		// Created by a racing goroutine between our lookup and the lock.
		t.mu.Unlock()
		return v
	}
	fam, redirect := r.admitSeries(name)
	target := name
	if redirect {
		target = OverflowName(fam)
	}
	old := t.load()
	next := index[T]{byKey: make(map[string]*T, len(old.byKey)+2), created: old.created, byName: old.byName}
	for k, inst := range old.byKey {
		next.byKey[k] = inst
	}
	v := old.byKey[target]
	if v == nil {
		v = mk(target)
		i, _ := slices.BinarySearchFunc(old.byName, target, func(e named[T], name string) int {
			return strings.Compare(e.name, name)
		})
		next.created = append(old.created, v)
		next.byName = slices.Insert(slices.Clip(old.byName), i, named[T]{target, v})
	}
	next.byKey[name], next.byKey[target] = v, v
	t.idx.Store(&next)
	t.mu.Unlock()
	if redirect {
		// Outside the lock: the overflow counter lives in a table too.
		r.noteOverflow(fam)
	}
	return v
}

// SetClock attaches a virtual clock; snapshots are stamped with its
// current time. Safe to call at any point (including never).
func (r *Registry) SetClock(c *vclock.Clock) {
	if r == nil {
		return
	}
	r.clockMu.Lock()
	r.clock = c
	r.clockMu.Unlock()
}

// Name builds a labeled metric name, e.g.
// Name("cluster_node_invocations_total", "node", "node-01") =>
// `cluster_node_invocations_total{node="node-01"}`. Label pairs are
// sorted by key so the same label set always yields the same name.
func Name(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("metrics: odd label list for %s: %v", base, kv))
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var sb strings.Builder
	sb.WriteString(base)
	sb.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", p.k, p.v)
	}
	sb.WriteByte('}')
	return sb.String()
}

// Counter returns the named counter, creating it on first use. The
// steady-state path is lock-free: a hit in the frozen read index costs
// one atomic load and one map lookup.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if c := r.counters.get(name); c != nil {
		return c
	}
	return r.counters.create(r, name, func(name string) *Counter { return &Counter{name: name} })
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if g := r.gauges.get(name); g != nil {
		return g
	}
	return r.gauges.create(r, name, func(name string) *Gauge { return &Gauge{name: name} })
}

// Histogram returns the named duration histogram (default latency
// buckets, nanosecond unit), creating it on first use. A hit in the
// frozen read index returns before the default buckets are even
// materialized, keeping repeat lookups allocation-free.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if h := r.histograms.get(name); h != nil {
		return h
	}
	return r.HistogramWith(name, UnitDuration, DefaultLatencyBuckets())
}

// HistogramWith returns the named histogram, creating it with the
// given unit and fixed bucket upper bounds on first use. Bounds must
// be ascending; an implicit +Inf bucket is appended. If the histogram
// already exists the unit and bounds arguments are ignored.
func (r *Registry) HistogramWith(name, unit string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if h := r.histograms.get(name); h != nil {
		return h
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %s bounds not ascending: %v", name, bounds))
		}
	}
	// A family's overflow histogram inherits the unit and bounds of the
	// first create redirected to it — families share a shape.
	return r.histograms.create(r, name, func(name string) *Histogram {
		return &Histogram{
			name:   name,
			unit:   unit,
			bounds: append([]float64(nil), bounds...),
			counts: make([]uint64, len(bounds)+1),
		}
	})
}

// Instruments returns every counter, gauge and histogram once, each
// kind in creation order. The lists only grow, so a caller that
// remembers their lengths reads only what was created since. Do not
// modify them.
func (r *Registry) Instruments() (counters []*Counter, gauges []*Gauge, histograms []*Histogram) {
	if r == nil {
		return nil, nil, nil
	}
	return r.counters.load().created, r.gauges.load().created, r.histograms.load().created
}

// Counter is a monotonically increasing count. Safe for concurrent
// use; all methods are no-ops on a nil receiver.
type Counter struct {
	name string
	v    atomic.Int64
}

// Name returns the counter's registry name.
func (c *Counter) Name() string { return c.name }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be non-negative; counters never decrease).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	if n < 0 {
		panic(fmt.Sprintf("metrics: counter %s decremented by %d", c.name, n))
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down (queue depth, live VMs,
// bytes in use). Safe for concurrent use; no-ops on a nil receiver.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Name returns the gauge's registry name.
func (g *Gauge) Name() string { return g.name }

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the value by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Exemplar ties one bucket of a histogram to a concrete trace: the
// most recent (on the virtual clock) observation that landed in the
// bucket while a trace was in scope. Exports surface it so a p99 in a
// dump links to a journal trace instead of an anonymous number.
type Exemplar struct {
	Trace uint64        // events.TraceID of the observing request
	Value float64       // the observed value
	TS    time.Duration // virtual time of the observation
}

// Histogram accumulates observations into fixed buckets and keeps a
// bounded window of raw samples for exact percentiles. Safe for
// concurrent use; no-ops on a nil receiver.
type Histogram struct {
	name   string
	unit   string
	bounds []float64 // ascending upper bounds; +Inf implicit last

	mu        sync.Mutex
	counts    []uint64 // len(bounds)+1
	count     uint64
	sum       float64
	min       float64
	max       float64
	win       window     // the most recent maxSamples observations
	exemplars []Exemplar // lazily allocated, len(bounds)+1; zero Trace = empty slot
}

// Name returns the histogram's registry name.
func (h *Histogram) Name() string { return h.name }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.observeLocked(v)
}

// observeLocked records v and returns the bucket index it landed in.
func (h *Histogram) observeLocked(v float64) int {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.win.observe(v)
	return i
}

// ObserveExemplar records one value and, when trace is nonzero,
// captures it as the bucket's exemplar. Capture is last-writer-wins on
// the virtual clock (ties go to the later call), so same-seed runs pin
// identical exemplars regardless of goroutine interleaving at equal
// virtual times only when their arrival order is itself deterministic —
// which the simulator's sequential per-trace pipelines guarantee.
func (h *Histogram) ObserveExemplar(v float64, trace uint64, ts time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := h.observeLocked(v)
	if trace == 0 {
		return
	}
	if h.exemplars == nil {
		h.exemplars = make([]Exemplar, len(h.bounds)+1)
	}
	if ex := &h.exemplars[i]; ex.Trace == 0 || ts >= ex.TS {
		*ex = Exemplar{Trace: trace, Value: v, TS: ts}
	}
}

// ObserveDuration records a virtual-time duration.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(float64(d)) }

// ObserveDurationExemplar records a virtual-time duration with an
// exemplar trace (see ObserveExemplar).
func (h *Histogram) ObserveDurationExemplar(d time.Duration, trace uint64, ts time.Duration) {
	h.ObserveExemplar(float64(d), trace, ts)
}

// Exemplars returns a copy of the per-bucket exemplar slots
// (len(bounds)+1; a zero Trace marks an empty slot). Nil when no
// exemplar was ever captured.
func (h *Histogram) Exemplars() []Exemplar {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.exemplars == nil {
		return nil
	}
	return append([]Exemplar(nil), h.exemplars...)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Percentile returns the p-th percentile (0-100) over the retained
// sample window: what internal/stats.Percentile computes over the
// window's samples, read by rank instead of by sorting them.
func (h *Histogram) Percentile(p float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.win.percentile(p)
}

// Summary returns the count, p50 and p99 under one lock: what a
// sampler records per histogram. The quantiles are 0 while it is empty.
func (h *Histogram) Summary() (count uint64, p50, p99 float64) {
	if h == nil {
		return 0, 0, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count > 0 {
		p50, p99 = h.win.percentile(50), h.win.percentile(99)
	}
	return h.count, p50, p99
}

// WindowWork reports the raw-sample window's counted work so far (see
// window.go).
func (h *Histogram) WindowWork() (blocksStepped, samplesMoved uint64) {
	if h == nil {
		return 0, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.win.stepped, h.win.moved
}

// snapshotTime returns the registry's virtual time, or 0 without a
// clock.
func (r *Registry) snapshotTime() time.Duration {
	r.clockMu.RLock()
	defer r.clockMu.RUnlock()
	if r.clock == nil {
		return 0
	}
	return r.clock.Now()
}
