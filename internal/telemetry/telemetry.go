// Package telemetry is the scale governor of the observability plane:
// it decides, after the fact, which traces are worth keeping.
//
// PRs 1–9 built full-fidelity telemetry — every span of every invoke
// lands in the journal, every label value gets a metric series. That
// is the right default for a 300-invocation chaos storm and exactly
// wrong for a million-user one: the measurement machinery must not
// cost more than the thing it measures. The TailSampler here buffers
// per-trace state until a trace completes (its root span ends, or a
// virtual-clock timeout expires) and then applies an ordered policy
// chain:
//
//  1. error — always keep traces that carried an error attr, had a
//     fault injected, or were named as the causal evidence of an SLO
//     alert;
//  2. latency — always keep traces whose root latency exceeds the
//     per-site p99-derived threshold (site = the root span's
//     component:name);
//  3. dlq — always keep workflow runs that dead-lettered a step;
//  4. probabilistic — keep a deterministic fraction of the rest:
//     SplitMix64 over TraceID and seed, the internal/faults style, so
//     the keep set is a pure function of (workload, seed) and is
//     independent of observation order.
//
// Dropped traces are physically removed from the journal (see
// events.DropTrace), so exports, /trace lookups, and insight reports
// run over O(kept) events — and, because the decision function is
// deterministic, two same-seed runs export byte-identical sampled
// journals.
//
// The sampler also installs an eviction guard on the journal: under
// ring pressure the journal evicts decided traces before the spans of
// traces still awaiting their decision, closing the PR 6 caveat where
// a full ring could silently drop the begin of an open trace.
package telemetry

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/events"
	"repro/internal/metrics"
)

// Policy names, in chain order. They label telemetry_traces_total and
// telemetry_dropped_bytes_total.
const (
	PolicyError         = "error"
	PolicyLatency       = "latency"
	PolicyDLQ           = "dlq"
	PolicyProbabilistic = "probabilistic"
)

// Config parameterizes a TailSampler. The zero value is usable:
// defaults fill in on New.
type Config struct {
	// Seed drives the probabilistic policy. Same seed, same workload,
	// same keep set.
	Seed uint64
	// KeepRate is the probabilistic keep fraction for traces no
	// always-keep policy claims: 0 means the default 0.1, negative
	// means keep none (always-keep policies still apply).
	KeepRate float64
}

// Fixed parameters of the latency policy and the stall timeout.
const (
	// latencyQuantile is the per-site percentile (0–100) a root latency
	// must exceed to be kept by the latency policy.
	latencyQuantile = 99
	// minSiteSamples is how many root latencies a site must have
	// contributed before its latency threshold arms — the first
	// requests of a site must not all read as outliers.
	minSiteSamples = 32
	// siteWindow bounds the per-site latency sample ring.
	siteWindow = 512
	// stallTimeout force-decides a trace that stopped emitting without
	// closing its root span, measured on the virtual clock from its
	// last event. Timed-out traces go through the same policy chain.
	stallTimeout = 30 * time.Second
)

func (c Config) withDefaults() Config {
	if c.KeepRate == 0 {
		c.KeepRate = 0.1
	} else if c.KeepRate < 0 {
		c.KeepRate = 0
	}
	return c
}

// ParseSpec parses a -telem flag value, "seed=N,rate=P[,card=K]" (every
// key optional, any order): the sampler's Config plus card, the
// per-family label-value budget the same flag sets on the registry
// (metrics.Registry.SetCardinalityLimit; 0 = unbounded). An explicit
// rate=0 keeps no boring traces. An empty spec leaves the governor off
// and returns a nil Config.
func ParseSpec(spec string) (cfg *Config, card int, err error) {
	if spec == "" {
		return nil, 0, nil
	}
	cfg = &Config{Seed: 1, KeepRate: 0.1}
	for _, field := range strings.Split(spec, ",") {
		key, value, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return nil, 0, fmt.Errorf("-telem field %q is not key=value", field)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				return nil, 0, fmt.Errorf("-telem seed: %w", err)
			}
			cfg.Seed = n
		case "rate":
			r, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return nil, 0, fmt.Errorf("-telem rate: %w", err)
			}
			if r < 0 || r > 1 {
				return nil, 0, fmt.Errorf("-telem rate %v out of [0,1]", r)
			}
			cfg.KeepRate = r
			if r == 0 {
				cfg.KeepRate = -1 // Config's zero means "default"
			}
		case "card":
			k, err := strconv.Atoi(value)
			if err != nil || k < 0 {
				return nil, 0, fmt.Errorf("-telem card %q (want a non-negative integer)", value)
			}
			card = k
		default:
			return nil, 0, fmt.Errorf("-telem has no key %q (want seed, rate, card)", key)
		}
	}
	return cfg, card, nil
}

// traceState is what the sampler buffers per in-flight trace: not the
// events themselves (the journal already holds those) but the few bits
// the policy chain needs.
type traceState struct {
	// since is the Seq of the trace's root begin — where DropTrace may
	// start looking — or 0 for a trace first seen mid-flight.
	since   uint64
	root    events.SpanID
	site    string
	firstTS time.Duration
	lastTS  time.Duration
	open    int
	events  int
	started bool
	errored bool
	faulted bool
	alerted bool
	dlq     bool
}

// siteRing is a bounded ring of root latencies for one site, from
// which the latency policy derives its threshold.
type siteRing struct {
	buf   []time.Duration
	start int
	n     int
}

func (s *siteRing) push(d time.Duration) {
	if s.n == len(s.buf) {
		s.start = (s.start + 1) % len(s.buf)
		s.n--
	}
	s.buf[(s.start+s.n)%len(s.buf)] = d
	s.n++
}

// quantile returns the q-th percentile (0–100) of the ring, nearest-
// rank over a sorted copy — deterministic for a deterministic ring.
func (s *siteRing) quantile(q float64) time.Duration {
	if s.n == 0 {
		return 0
	}
	vals := make([]time.Duration, s.n)
	for i := 0; i < s.n; i++ {
		vals[i] = s.buf[(s.start+i)%len(s.buf)]
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
	idx := int(float64(s.n-1)*q/100 + 0.5)
	if idx >= s.n {
		idx = s.n - 1
	}
	return vals[idx]
}

// policyCounts is the per-policy ledger behind Stats.
type policyCounts struct {
	kept, dropped int64
	droppedEvents int64
	droppedBytes  int64
}

// TailSampler buffers per-trace state from a journal and applies the
// policy chain when each trace completes. Attach it with Attach; drive
// timeouts with Flush (or FlushAll at end of run). Safe for concurrent
// use, with the same determinism caveat as internal/faults: a
// sequential workload reproduces decisions exactly; concurrent traces
// decide independently (the probabilistic hash is order-free) but
// latency thresholds see sites in observation order.
type TailSampler struct {
	cfg Config
	j   *events.Journal
	reg *metrics.Registry

	mu      sync.Mutex
	traces  map[events.TraceID]*traceState
	order   []events.TraceID // pending traces, first-seen order (deterministic flush)
	sites   map[string]*siteRing
	policy  map[string]*policyCounts
	decided int64

	// active mirrors "trace has undecided state" lock-free for the
	// journal's eviction guard, which runs under the journal's lock and
	// must not take t.mu (the sampler holds t.mu while calling DropTrace,
	// which takes that lock — the mirror breaks the cycle).
	active sync.Map // events.TraceID -> struct{}
}

// New returns a detached sampler; call Attach to arm it on a journal.
func New(cfg Config) *TailSampler {
	return &TailSampler{
		cfg:    cfg.withDefaults(),
		traces: make(map[events.TraceID]*traceState),
		sites:  make(map[string]*siteRing),
		policy: make(map[string]*policyCounts),
	}
}

// Attach arms the sampler: it becomes the journal's observer and
// eviction guard and registers its counters on reg (a private registry
// when nil, so callers without one still get Stats).
func (t *TailSampler) Attach(j *events.Journal, reg *metrics.Registry) {
	if t == nil || j == nil {
		return
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	t.mu.Lock()
	t.j = j
	t.reg = reg
	t.mu.Unlock()
	j.SetEvictionGuard(func(id events.TraceID) bool {
		_, ok := t.active.Load(id)
		return ok
	})
	j.SetObserver(t)
}

// decision is one completed trace's verdict, executed outside t.mu.
type decision struct {
	id     events.TraceID
	since  uint64
	policy string
	keep   bool
}

// ObserveEvent implements events.Observer. It runs on the appending
// goroutine after the journal released its lock.
func (t *TailSampler) ObserveEvent(e events.Event) {
	if t == nil {
		return
	}
	if e.Trace == 0 {
		// Traceless instants (watchdog alerts, fleet marks) are never
		// sampled away — but an SLO alert's causal link promotes its
		// evidence trace to always-keep while that trace is pending.
		if e.Kind == events.KindInstant && e.Component == "slo" && e.Link.Trace != 0 {
			t.mu.Lock()
			if st := t.traces[e.Link.Trace]; st != nil {
				st.alerted = true
			}
			t.mu.Unlock()
		}
		return
	}
	t.mu.Lock()
	st := t.traces[e.Trace]
	if st == nil {
		st = &traceState{firstTS: e.TS, lastTS: e.TS}
		if e.Kind == events.KindBegin && e.Parent == 0 {
			st.since = e.Seq
		}
		t.traces[e.Trace] = st
		t.order = append(t.order, e.Trace)
		t.active.Store(e.Trace, struct{}{})
	}
	if e.TS > st.lastTS {
		st.lastTS = e.TS
	}
	st.events++
	for _, a := range e.Attrs {
		if a.Key == "error" {
			st.errored = true
		}
	}
	var done *decision
	switch e.Kind {
	case events.KindBegin:
		st.open++
		if !st.started {
			st.started = true
			st.root = e.Span
			st.site = e.Component + ":" + e.Name
		}
	case events.KindEnd:
		if st.open > 0 {
			st.open--
		}
		if st.started && e.Span == st.root {
			d := t.decideLocked(e.Trace, st)
			done = &d
		}
	case events.KindInstant:
		switch {
		case e.Component == "faults":
			st.faulted = true
		case e.Component == "workflow" && e.Name == "step-dead":
			st.dlq = true
		}
	}
	t.mu.Unlock()
	if done != nil {
		t.execute(*done)
	}
}

// decideLocked runs the policy chain for a completed trace, retires
// its state, and feeds the site latency ring. Caller holds t.mu; the
// returned decision is executed after unlock (DropTrace takes the
// journal's lock).
func (t *TailSampler) decideLocked(id events.TraceID, st *traceState) decision {
	latency := st.lastTS - st.firstTS
	d := decision{id: id, since: st.since}
	switch {
	case st.errored || st.faulted || st.alerted:
		d.policy, d.keep = PolicyError, true
	case t.latencyOutlierLocked(st.site, latency):
		d.policy, d.keep = PolicyLatency, true
	case st.dlq:
		d.policy, d.keep = PolicyDLQ, true
	default:
		d.policy = PolicyProbabilistic
		d.keep = keepFraction(uint64(id), t.cfg.Seed) < t.cfg.KeepRate
	}
	// Feed the site ring after the check: a spike must not raise its
	// own bar. Error traces contribute too — their latency is real.
	if st.site != "" {
		ring := t.sites[st.site]
		if ring == nil {
			ring = &siteRing{buf: make([]time.Duration, siteWindow)}
			t.sites[st.site] = ring
		}
		ring.push(latency)
	}
	delete(t.traces, id)
	t.decided++
	return d
}

// latencyOutlierLocked reports whether latency exceeds the site's
// armed threshold. Sites with fewer than minSiteSamples completed
// roots have no threshold yet.
func (t *TailSampler) latencyOutlierLocked(site string, latency time.Duration) bool {
	ring := t.sites[site]
	if ring == nil || ring.n < minSiteSamples {
		return false
	}
	return latency > ring.quantile(latencyQuantile)
}

// execute applies one decision: account it, and for drops physically
// remove the trace from the journal. Runs without t.mu held (DropTrace
// takes the journal's lock; the eviction guard takes none).
func (t *TailSampler) execute(d decision) {
	t.active.Delete(d.id)
	var removed int
	var bytes int64
	if !d.keep {
		removed, bytes = t.j.DropTrace(d.id, d.since)
	}
	t.mu.Lock()
	pc := t.policy[d.policy]
	if pc == nil {
		pc = &policyCounts{}
		t.policy[d.policy] = pc
	}
	if d.keep {
		pc.kept++
	} else {
		pc.dropped++
		pc.droppedEvents += int64(removed)
		pc.droppedBytes += bytes
	}
	reg := t.reg
	t.mu.Unlock()
	dec := "keep"
	if !d.keep {
		dec = "drop"
	}
	reg.Counter(metrics.Name("telemetry_traces_total", "decision", dec, "policy", d.policy)).Inc()
	if !d.keep {
		reg.Counter(metrics.Name("telemetry_dropped_bytes_total", "policy", d.policy)).Add(bytes)
	}
}

// Flush force-decides every pending trace whose last event is at least
// stallTimeout behind now on the virtual clock — the terminal path for
// traces that died without closing their root. Call it from the same
// loop that advances the clock.
func (t *TailSampler) Flush(now time.Duration) {
	t.flush(func(st *traceState) bool { return now-st.lastTS >= stallTimeout })
}

// FlushAll decides every pending trace regardless of age — the
// end-of-run drain before a final export.
func (t *TailSampler) FlushAll() {
	t.flush(func(*traceState) bool { return true })
}

func (t *TailSampler) flush(due func(*traceState) bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	var done []decision
	live := t.order[:0]
	for _, id := range t.order {
		st := t.traces[id]
		if st == nil {
			continue // already decided
		}
		if due(st) {
			done = append(done, t.decideLocked(id, st))
			continue
		}
		live = append(live, id)
	}
	t.order = live
	t.mu.Unlock()
	for _, d := range done {
		t.execute(d)
	}
}

// keepFraction maps (trace, seed) onto [0, 1) with the SplitMix64
// finalizer internal/vclock.Rand uses — stateless, so the keep set
// does not depend on the order traces complete in.
func keepFraction(trace, seed uint64) float64 {
	z := trace ^ seed
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// PolicyStats is one policy's slice of the ledger.
type PolicyStats struct {
	Policy        string `json:"policy"`
	Kept          int64  `json:"kept"`
	Dropped       int64  `json:"dropped"`
	DroppedEvents int64  `json:"dropped_events"`
	DroppedBytes  int64  `json:"dropped_bytes"`
}

// Stats is the sampler's self-accounting: what /telemetry serves and
// the telem experiment asserts over.
type Stats struct {
	PendingTraces int64         `json:"pending_traces"`
	DecidedTraces int64         `json:"decided_traces"`
	KeptTraces    int64         `json:"kept_traces"`
	DroppedTraces int64         `json:"dropped_traces"`
	DroppedEvents int64         `json:"dropped_events"`
	DroppedBytes  int64         `json:"dropped_bytes"`
	Policies      []PolicyStats `json:"policies"`
}

// Stats returns a copy of the ledger; Policies sort by name so the
// JSON rendering is byte-stable.
func (t *TailSampler) Stats() Stats {
	var s Stats
	if t == nil {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.PendingTraces = int64(len(t.traces))
	s.DecidedTraces = t.decided
	names := make([]string, 0, len(t.policy))
	for name := range t.policy {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pc := t.policy[name]
		s.Policies = append(s.Policies, PolicyStats{
			Policy: name, Kept: pc.kept, Dropped: pc.dropped,
			DroppedEvents: pc.droppedEvents, DroppedBytes: pc.droppedBytes,
		})
		s.KeptTraces += pc.kept
		s.DroppedTraces += pc.dropped
		s.DroppedEvents += pc.droppedEvents
		s.DroppedBytes += pc.droppedBytes
	}
	return s
}
