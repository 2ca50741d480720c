// Package events is the causal event journal of the simulated stack:
// a concurrency-safe, bounded ring buffer of timestamped events on the
// virtual clock, from which per-request traces and Perfetto-loadable
// Chrome trace files are derived.
//
// Every event carries a TraceID (one end-to-end request), a SpanID, and
// the parent span it nests under; causal links can additionally cross
// traces and components — a msgbus record carries its producer's span
// reference so the consume event links back to the produce, and a
// cluster failover links the re-placement to the failed attempt.
//
// Like the metrics registry and the fault plane, the journal is a pure
// function of the workload and the seed: IDs are allocated in
// operation order and timestamps come from virtual clocks, so a
// sequential run with a fixed seed reproduces the NDJSON dump byte for
// byte. (Concurrent invocations interleave appends in goroutine
// schedule order — the same caveat internal/faults documents.)
//
// The journal is one ring under one lock, and its slots are in Seq
// order by construction: an append takes its sequence number while it
// holds the lock, and eviction and DropTrace close the gaps they make
// without reordering survivors. So no read sorts, and each walks only
// the suffix it needs: Tail copies the last n slots, Since binary-
// searches Seq for the first event a cursor has not seen, Newest scans
// back from the tail, and DropTrace(id, since) compacts only the slots
// from the trace's first Seq on — dropping a trace that just finished
// costs the events appended while it ran, not the ring's capacity.
//
// A full ring evicts its oldest event on append. With an eviction guard
// installed (SetEvictionGuard — a tail sampler protecting its still-open
// traces) it skips guarded traces and evicts the oldest unguarded event.
package events

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// TraceID identifies one end-to-end request; 0 means "no trace"
// (a global event outside any request).
type TraceID uint64

// SpanID identifies one span (or instant) within the journal. IDs are
// unique journal-wide, not per trace.
type SpanID uint64

// Ref names a span in a journal — the currency of causal links. The
// zero Ref links to nothing.
type Ref struct {
	Trace TraceID
	Span  SpanID
}

// IsZero reports whether the ref links to nothing.
func (r Ref) IsZero() bool { return r.Trace == 0 && r.Span == 0 }

// Kind classifies an event.
type Kind string

// Event kinds. Begin/End delimit a span; Instant is a zero-width mark
// (which still gets its own SpanID so later events can link to it).
const (
	KindBegin   Kind = "begin"
	KindEnd     Kind = "end"
	KindInstant Kind = "instant"
)

// Attr is one key=value annotation on an event. Attrs are ordered (a
// slice, not a map) so the journal's exports are byte-stable.
type Attr struct {
	Key   string
	Value string
}

// A builds an Attr; it keeps emission sites compact.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// Event is one record in the journal.
type Event struct {
	// Seq is the journal-wide append sequence number (1-based).
	Seq uint64
	// TS is the virtual-clock position of the emitting invocation.
	// Clocks are per-invocation, so TS is monotonic within one trace
	// segment but restarts across requests (and across failover
	// attempts); exporters normalize where their format requires it.
	TS time.Duration
	// Trace/Span/Parent place the event in its request's span tree.
	Trace  TraceID
	Span   SpanID
	Parent SpanID
	Kind   Kind
	// Component names the emitting subsystem (core, cluster, msgbus,
	// vmm, snapshot, faults, retry, gateway).
	Component string
	Name      string
	// Node and VM locate the event in the fleet (Perfetto: one pid per
	// node, one tid per VM; empty = the host / control plane).
	Node string
	VM   string
	// Link is a causal reference to another span (produce→consume,
	// failed attempt→failover re-placement). Zero when unlinked.
	Link  Ref
	Attrs []Attr
}

// DefaultCapacity is the journal's default ring size: the room a 3-node
// gateway really had when the journal was 16 node-hashed stripes of
// 4,096 slots and wrote four of them. Reads cost in proportion to the
// resident events, so a larger default makes every scrape dearer.
const DefaultCapacity = 1 << 14

// Observer sees every event as it is appended — the hook a tail
// sampler uses to track trace liveness without polling the ring.
// ObserveEvent runs on the appending goroutine after the journal's lock
// is released, so an observer may call back into the journal
// (DropTrace, Trace, …) but must tolerate concurrent appends.
type Observer interface {
	ObserveEvent(e Event)
}

// Journal is the bounded event ring of one simulated deployment (a
// host, or a whole cluster sharing one journal via EnvConfig). When
// full, the oldest events are dropped and counted. A nil *Journal is
// valid and records nothing, so components emit unconditionally.
type Journal struct {
	mu      sync.Mutex
	buf     []Event
	start   int    // index of the oldest event
	n       int    // events resident
	seq     uint64 // last sequence number assigned
	dropped uint64

	nextTrace atomic.Uint64
	nextSpan  atomic.Uint64

	recorded atomic.Pointer[metrics.Counter]
	droppedC atomic.Pointer[metrics.Counter]
	reg      atomic.Pointer[metrics.Registry] // for the span check's counter

	obs   atomic.Pointer[Observer]
	guard atomic.Pointer[func(TraceID) bool]
}

// NewJournal returns a journal holding at most capacity events
// (DefaultCapacity when <= 0).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Journal{buf: make([]Event, capacity)}
}

// at returns the k-th oldest resident slot; the caller holds j.mu.
func (j *Journal) at(k int) *Event { return &j.buf[(j.start+k)%len(j.buf)] }

// firstAfter returns the index of the oldest resident event whose Seq
// exceeds seq (j.n when there is none), by binary search — slots are in
// Seq order. The caller holds j.mu.
func (j *Journal) firstAfter(seq uint64) int {
	lo, hi := 0, j.n
	for lo < hi {
		if mid := (lo + hi) / 2; j.at(mid).Seq > seq {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// copyFrom returns a copy of the resident events from index k on, in
// append order. The caller holds j.mu.
func (j *Journal) copyFrom(k int) []Event {
	out := make([]Event, j.n-k)
	head := copy(out, j.buf[(j.start+k)%len(j.buf):])
	copy(out[head:], j.buf)
	return out
}

// Instrument attaches the journal to a metrics registry:
// events_recorded_total and events_dropped_total.
func (j *Journal) Instrument(reg *metrics.Registry) {
	if j == nil {
		return
	}
	j.recorded.Store(reg.Counter("events_recorded_total"))
	j.droppedC.Store(reg.Counter("events_dropped_total"))
	j.reg.Store(reg)
}

// SetObserver installs (or, with nil, removes) the journal's single
// observer. The observer sees every subsequent append.
func (j *Journal) SetObserver(o Observer) {
	if j == nil {
		return
	}
	if o == nil {
		j.obs.Store(nil)
		return
	}
	j.obs.Store(&o)
}

// SetEvictionGuard installs the predicate consulted when the full ring
// must evict: active(trace) == true protects that trace's events, so
// ring pressure falls on completed traces first. A tail sampler
// installs one so spans of still-open traces cannot be lost before
// their keep/drop decision. The guard runs under the journal's lock and
// must not call back into the journal. Nil removes the guard,
// restoring plain oldest-first eviction.
func (j *Journal) SetEvictionGuard(active func(TraceID) bool) {
	if j == nil {
		return
	}
	if active == nil {
		j.guard.Store(nil)
		return
	}
	j.guard.Store(&active)
}

// append records an event. Its sequence number is taken under the lock
// that places it, which is what keeps the slots in Seq order. The event
// is passed by pointer purely to avoid copying the ~200-byte struct an
// extra time; append copies it into the ring and retains nothing.
func (j *Journal) append(e *Event) {
	j.mu.Lock()
	j.seq++
	e.Seq = j.seq
	if j.n == len(j.buf) {
		j.evictOne()
	}
	*j.at(j.n) = *e
	j.n++
	j.mu.Unlock()
	j.recorded.Load().Inc()
	if op := j.obs.Load(); op != nil {
		(*op).ObserveEvent(*e)
	}
}

// evictOne frees one slot in the full ring; the caller holds j.mu.
// Without a guard the oldest event goes. With a guard the oldest event
// of an inactive trace goes instead (traceless events count as
// inactive), so a still-open trace keeps its spans; when every resident
// event is protected the ring falls back to plain oldest — bounded
// memory beats perfect retention.
func (j *Journal) evictOne() {
	victim := 0
	if gp := j.guard.Load(); gp != nil {
		active := *gp
		for k := 0; k < j.n; k++ {
			if e := j.at(k); e.Trace == 0 || !active(e.Trace) {
				victim = k
				break
			}
		}
	}
	// Shift the events older than the victim forward one slot and
	// advance start: survivors keep their relative order.
	for k := victim; k > 0; k-- {
		*j.at(k) = *j.at(k - 1)
	}
	j.start = (j.start + 1) % len(j.buf)
	j.n--
	j.dropped++
	j.droppedC.Load().Inc()
}

// DropTrace removes every resident event of one trace and reports how
// many events (and how many NDJSON-encoded bytes, trailing newlines
// included) were discarded — the accounting a tail sampler charges its
// dropped-bytes counters with. since is the Seq of the trace's first
// event when the caller knows it: only the slots from there to the tail
// are examined and compacted; 0, or any Seq no later than the trace's
// first, scans the whole ring. Dropping is physical: Events(), Trace(),
// and every exporter see only survivors, so a sampled journal costs
// O(kept). Sampler drops are deliberate, so they do not count into
// Dropped() or events_dropped_total, which measure ring-overflow loss.
func (j *Journal) DropTrace(id TraceID, since uint64) (removed int, bytes int64) {
	if j == nil || id == 0 {
		return 0, 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	kept := 0
	if since > 0 {
		kept = j.firstAfter(since - 1)
	}
	for k := kept; k < j.n; k++ {
		e := j.at(k)
		if e.Trace == id {
			removed++
			bytes += int64(EncodedSize(*e))
			continue
		}
		if kept != k {
			*j.at(kept) = *e
		}
		kept++
	}
	j.n = kept
	return removed, bytes
}

// Len reports how many events are resident.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Dropped reports how many events the ring has evicted.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Events returns a copy of the resident events in append order.
func (j *Journal) Events() []Event {
	return j.Tail(0)
}

// Tail returns a copy of the newest n resident events in append order
// (all of them when n <= 0 or n exceeds the resident count).
func (j *Journal) Tail(n int) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if n <= 0 || n > j.n {
		n = j.n
	}
	return j.copyFrom(j.n - n)
}

// Since returns a copy of the resident events whose Seq exceeds seq, in
// append order — what a cursor that has read up to seq has not seen
// yet. It costs a binary search plus the events returned.
func (j *Journal) Since(seq uint64) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.copyFrom(j.firstAfter(seq))
}

// Newest returns a copy of the most recently appended resident event
// match accepts, scanning back from the tail and copying nothing else —
// the lookup for "the latest event that …" on a journal too big to copy
// per query. match runs under the journal's lock on the ring's own
// slot: it must not retain the pointer or call back into the journal.
func (j *Journal) Newest(match func(e *Event) bool) (Event, bool) {
	if j == nil {
		return Event{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for k := j.n - 1; k >= 0; k-- {
		if e := j.at(k); match(e) {
			return *e, true
		}
	}
	return Event{}, false
}

// Trace returns the resident events of one trace in append order.
func (j *Journal) Trace(id TraceID) []Event {
	if j == nil || id == 0 {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	for k := 0; k < j.n; k++ {
		if e := j.at(k); e.Trace == id {
			out = append(out, *e)
		}
	}
	return out
}

// Instant records a global (traceless) event — used by components that
// fire outside any request context. Returns the instant's Ref so later
// events may still link to it.
func (j *Journal) Instant(component, name string, ts time.Duration, attrs ...Attr) Ref {
	return j.InstantLinked(component, name, ts, Ref{}, attrs...)
}

// InstantLinked is the journal-level Instant carrying a causal link to
// another span — how a traceless observer (the SLO watchdog) points its
// alert at the in-trace evidence that triggered it. A zero link
// degrades to a plain instant.
func (j *Journal) InstantLinked(component, name string, ts time.Duration, link Ref, attrs ...Attr) Ref {
	if j == nil {
		return Ref{}
	}
	id := SpanID(j.nextSpan.Add(1))
	j.append(&Event{
		TS: ts, Span: id, Kind: KindInstant,
		Component: component, Name: name, Link: link, Attrs: attrs,
	})
	return Ref{Span: id}
}

// Scope is one request's handle into the journal: it owns a TraceID
// and a stack of open spans, so emission sites only name what happened
// and the scope supplies trace, parent, node, and VM context. It is
// owned by a single invocation and is not safe for concurrent use. A nil *Scope is valid and records nothing.
type Scope struct {
	j     *Journal
	trace TraceID
	stack []frame
	node  string
	vm    string
	// stackBuf inlines the open-span stack for typical nesting depths,
	// so a scope costs one allocation instead of two.
	stackBuf [4]frame
}

// frame is an open span: its begin, and the time it has accounted for.
type frame struct {
	id         SpanID
	begin, due time.Duration
}

// NewScope opens a new trace rooted at a span named name, beginning at
// virtual time ts. A nil journal yields a nil scope (which records
// nothing), so callers never branch.
func (j *Journal) NewScope(component, name string, ts time.Duration, attrs ...Attr) *Scope {
	if j == nil {
		return nil
	}
	s := &Scope{j: j, trace: TraceID(j.nextTrace.Add(1))}
	s.stack = s.stackBuf[:0]
	s.Begin(component, name, ts, attrs...)
	return s
}

// TraceID returns the scope's trace ID (0 for a nil scope).
func (s *Scope) TraceID() TraceID {
	if s == nil {
		return 0
	}
	return s.trace
}

// SetNode attributes subsequent events to a cluster node (Perfetto
// pid). The cluster layer sets it at placement time.
func (s *Scope) SetNode(name string) {
	if s != nil {
		s.node = name
	}
}

// SetVM attributes subsequent events to a microVM (Perfetto tid).
// Empty means the control plane.
func (s *Scope) SetVM(id string) {
	if s != nil {
		s.vm = id
	}
}

// Begin opens a span nested under the innermost open one.
func (s *Scope) Begin(component, name string, ts time.Duration, attrs ...Attr) {
	if s == nil {
		return
	}
	id := SpanID(s.j.nextSpan.Add(1))
	e := Event{
		TS: ts, Trace: s.trace, Span: id, Parent: s.parent(), Kind: KindBegin,
		Component: component, Name: name, Node: s.node, VM: s.vm, Attrs: attrs,
	}
	s.j.append(&e)
	s.stack = append(s.stack, frame{id: id, begin: ts})
}

// End closes the innermost open span. Ending with nothing open is a
// no-op (the journal is best-effort: a lost event must never take the
// platform down). A span whose self time is not what was booked in it
// counts into events_span_self_mismatch_total, from the first one on.
func (s *Scope) End(ts time.Duration, attrs ...Attr) {
	if s == nil || len(s.stack) == 0 {
		return
	}
	f := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	if ts-f.begin != f.due {
		s.j.reg.Load().Counter("events_span_self_mismatch_total").Inc()
	}
	s.Book(ts - f.begin) // the parent's closed children
	// End events do not repeat the Begin's component/name — consumers
	// resolve them by span ID.
	e := Event{
		TS: ts, Trace: s.trace, Span: f.id, Parent: s.parent(), Kind: KindEnd,
		Node: s.node, VM: s.vm, Attrs: attrs,
	}
	s.j.append(&e)
}

// Instant records a zero-width event under the innermost open span and
// returns its Ref for causal linking.
func (s *Scope) Instant(component, name string, ts time.Duration, attrs ...Attr) Ref {
	return s.InstantLinked(component, name, ts, Ref{}, attrs...)
}

// InstantLinked is Instant carrying a causal link to another span
// (a zero link degrades to a plain instant).
func (s *Scope) InstantLinked(component, name string, ts time.Duration, link Ref, attrs ...Attr) Ref {
	if s == nil {
		return Ref{}
	}
	id := SpanID(s.j.nextSpan.Add(1))
	e := Event{
		TS: ts, Trace: s.trace, Span: id, Parent: s.parent(), Kind: KindInstant,
		Component: component, Name: name, Node: s.node, VM: s.vm, Link: link, Attrs: attrs,
	}
	s.j.append(&e)
	return Ref{Trace: s.trace, Span: id}
}

// Close ends every span still open, innermost first — the root last.
// Callers that own the trace root call it exactly once at the end of
// the request.
func (s *Scope) Close(ts time.Duration, attrs ...Attr) {
	if s == nil {
		return
	}
	for len(s.stack) > 1 {
		s.End(ts)
	}
	s.End(ts, attrs...)
}

// Book adds d of virtual time to the innermost open span, if any.
func (s *Scope) Book(d time.Duration) {
	if n := s.OpenSpans(); n > 0 {
		s.stack[n-1].due += d
	}
}

// OpenSpans reports how many spans the scope currently has open.
func (s *Scope) OpenSpans() int {
	if s == nil {
		return 0
	}
	return len(s.stack)
}

func (s *Scope) parent() SpanID {
	if len(s.stack) == 0 {
		return 0
	}
	return s.stack[len(s.stack)-1].id
}
