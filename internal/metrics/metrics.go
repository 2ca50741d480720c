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
// Lookups probe an append-only open-addressed index with no lock
// traffic at all — instruments are created once and live forever,
// which is exactly the read-mostly shape it serves. A create takes the
// kind's one mutex, fills one slot (doubling the index when it is half
// full) and appends the instrument to the creation-order list a
// sampler walks (Instruments). Exports walk a name-order view sorted
// when they find new names.
package metrics

import (
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// UnitDuration marks a histogram whose observations are virtual-time
// durations in nanoseconds; exporters render them as time.Duration.
const UnitDuration = "ns"

// maxSamples bounds the raw-sample window a histogram retains for
// exact percentiles. Past the bound the window wraps (a deterministic
// ring), so quantiles describe the most recent maxSamples
// observations. Its sorted side holds each distinct value once, with a
// count (see window.go).
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
	counters   table[Counter]
	gauges     table[Gauge]
	histograms table[Histogram]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// table is the name space of one instrument kind. Instruments are
// created once and live forever, so lookups probe an index that a
// create (serialized by mu) only ever adds to: a reader takes no lock,
// and registering n instruments copies O(n) slots in all, not one map
// per create. Creation order, which a sampler walks, and the name
// order exports walk are kept beside it under mu.
type table[T any] struct {
	mu      sync.Mutex
	idx     atomic.Pointer[index[T]]
	created []*T       // creation order; appended in place
	names   []string   // names[i] is created[i]'s name
	sorted  []named[T] // the first len(sorted) created, in name order
}

type named[T any] struct {
	name string
	inst *T
}

// index is an open-addressed hash set of instruments by name. Each slot
// goes from nil to its entry once, so a reader probing from the name's
// hash either finds the entry or meets a nil slot and misses. A create
// that would fill it past half publishes a copy twice as large instead.
type index[T any] struct {
	seed  maphash.Seed
	slots []atomic.Pointer[named[T]]
}

// insert adds e; the caller holds the table's mu.
func (x *index[T]) insert(e *named[T]) {
	mask := uint64(len(x.slots) - 1)
	i := maphash.String(x.seed, e.name) & mask
	for x.slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	x.slots[i].Store(e)
}

// get returns the named instrument, or nil when it does not exist yet.
func (t *table[T]) get(name string) *T {
	x := t.idx.Load()
	if x == nil {
		return nil
	}
	mask := uint64(len(x.slots) - 1)
	for i := maphash.String(x.seed, name) & mask; ; i = (i + 1) & mask {
		e := x.slots[i].Load()
		if e == nil {
			return nil
		}
		if e.name == name {
			return e.inst
		}
	}
}

// create returns the named instrument, making it with mk on first use.
func (t *table[T]) create(name string, mk func(name string) *T) *T {
	t.mu.Lock()
	defer t.mu.Unlock()
	if v := t.get(name); v != nil {
		// Created by a racing goroutine between our lookup and the lock.
		return v
	}
	x := t.idx.Load()
	if x == nil || 2*(len(t.created)+1) > len(x.slots) {
		grown := &index[T]{seed: maphash.MakeSeed(), slots: make([]atomic.Pointer[named[T]], max(16, 4*len(t.created)))}
		if x != nil {
			for i := range x.slots {
				if e := x.slots[i].Load(); e != nil {
					grown.insert(e)
				}
			}
		}
		t.idx.Store(grown)
		x = grown
	}
	v := mk(name)
	t.created = append(t.created, v)
	t.names = append(t.names, name)
	x.insert(&named[T]{name, v})
	return v
}

// list returns every instrument in creation order. Creates append past
// the returned length, so the slice stays valid and unchanged.
func (t *table[T]) list() []*T {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.created
}

// byName returns every instrument in name order. A call that finds new
// instruments sorts them into a fresh slice, so a slice already handed
// out is never written again.
func (t *table[T]) byName() []named[T] {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.sorted) < len(t.created) {
		next := make([]named[T], len(t.sorted), len(t.created))
		copy(next, t.sorted)
		for i := len(t.sorted); i < len(t.created); i++ {
			next = append(next, named[T]{t.names[i], t.created[i]})
		}
		slices.SortFunc(next, func(a, b named[T]) int { return strings.Compare(a.name, b.name) })
		t.sorted = next
	}
	return t.sorted
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
	return r.counters.create(name, func(name string) *Counter { return &Counter{name: name} })
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if g := r.gauges.get(name); g != nil {
		return g
	}
	return r.gauges.create(name, func(name string) *Gauge { return &Gauge{name: name} })
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
	return r.histograms.create(name, func(name string) *Histogram {
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
	return r.counters.list(), r.gauges.list(), r.histograms.list()
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
// It records zeros as +0 and NaNs as math.NaN(), so that samples the
// window counts as one value are one bit pattern.
func (h *Histogram) observeLocked(v float64) int {
	if v == 0 {
		v = 0
	} else if v != v {
		v = math.NaN()
	}
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

// ObserveDurationExemplar records a virtual-time duration with an
// exemplar trace (see ObserveExemplar).
func (h *Histogram) ObserveDurationExemplar(d time.Duration, trace uint64, ts time.Duration) {
	h.ObserveExemplar(float64(d), trace, ts)
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
