// Package events is the causal event journal of the simulated stack:
// a concurrency-safe, bounded ring buffer of timestamped events on the
// virtual clock, from which per-request traces, Perfetto-loadable
// Chrome trace files, and virtual-time flame profiles are derived.
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
// The journal is sharded per node: appends hash the event's Node name
// onto independently locked rings, so a fleet of nodes recording into
// one shared journal does not serialize on a single mutex. Sequence
// numbers stay journal-wide (an atomic counter), and Events() merges
// the shards back into sequence order, so exports are byte-identical
// to the flat single-ring layout for the same workload —
// NewJournalShards(capacity, 1) keeps the flat layout available as the
// benchmark baseline. The one observable difference is eviction under
// overflow: a full shard evicts its own oldest event rather than the
// globally oldest (capacity is divided across shards), an approximation
// that only shows once a run overflows the ring. With an eviction
// guard installed (SetEvictionGuard — a tail sampler protecting its
// still-open traces) a full shard skips guarded traces and evicts the
// oldest unguarded event instead.
package events

import (
	"sort"
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

// DefaultCapacity is the journal's default ring size.
const DefaultCapacity = 1 << 16

// DefaultShards is the per-node stripe count of NewJournal — sized for
// the simulated fleets the cluster experiments run (dozens of nodes).
const DefaultShards = 16

// Observer sees every event as it is appended — the hook a tail
// sampler uses to track trace liveness without polling the rings.
// ObserveEvent runs on the appending goroutine after the shard lock is
// released, so an observer may call back into the journal (DropTrace,
// Trace, …) but must tolerate concurrent appends.
type Observer interface {
	ObserveEvent(e Event)
}

// Journal is the bounded event ring of one simulated deployment (a
// host, or a whole cluster sharing one journal via EnvConfig). When
// full, the oldest events are dropped and counted. A nil *Journal is
// valid and records nothing, so components emit unconditionally.
type Journal struct {
	shards    []journalShard
	mask      uint32
	seq       atomic.Uint64
	nextTrace atomic.Uint64
	nextSpan  atomic.Uint64

	recorded atomic.Pointer[metrics.Counter]
	droppedC atomic.Pointer[metrics.Counter]

	obs   atomic.Pointer[Observer]
	guard atomic.Pointer[func(TraceID) bool]
}

// journalShard is one independently locked event ring; appends hash
// the event's Node name here, so each simulated node contends only
// with itself (and the host events sharing its stripe).
type journalShard struct {
	mu      sync.Mutex
	buf     []Event
	start   int // index of the oldest event
	n       int // events resident
	dropped uint64
	_       [24]byte // keep neighboring shard mutexes off one cache line
}

// NewJournal returns a journal holding at most capacity events
// (DefaultCapacity when <= 0) striped over DefaultShards rings.
func NewJournal(capacity int) *Journal {
	return NewJournalShards(capacity, DefaultShards)
}

// NewJournalShards returns a journal with an explicit stripe count
// (rounded up to a power of two; n <= 1 yields the flat single-ring
// layout the contention benchmarks use as their baseline). The total
// capacity is divided across the stripes.
func NewJournalShards(capacity, n int) *Journal {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if n < 1 {
		n = DefaultShards
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	per := (capacity + pow - 1) / pow
	if per < 1 {
		per = 1
	}
	j := &Journal{shards: make([]journalShard, pow), mask: uint32(pow - 1)}
	for i := range j.shards {
		j.shards[i].buf = make([]Event, per)
	}
	return j
}

// Shards reports the journal's stripe count.
func (j *Journal) Shards() int {
	if j == nil {
		return 0
	}
	return len(j.shards)
}

// shard maps a node name onto its stripe (FNV-1a; "" — the host /
// control plane — hashes like any other name).
func (j *Journal) shard(node string) *journalShard {
	var h uint32 = 2166136261
	for i := 0; i < len(node); i++ {
		h ^= uint32(node[i])
		h *= 16777619
	}
	return &j.shards[h&j.mask]
}

// Instrument attaches the journal to a metrics registry:
// events_recorded_total and events_dropped_total.
func (j *Journal) Instrument(reg *metrics.Registry) {
	if j == nil {
		return
	}
	j.recorded.Store(reg.Counter("events_recorded_total"))
	j.droppedC.Store(reg.Counter("events_dropped_total"))
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

// SetEvictionGuard installs the predicate consulted when a full shard
// must evict: active(trace) == true protects that trace's events, so
// ring pressure falls on completed traces first. A tail sampler
// installs one so spans of still-open traces cannot be lost before
// their keep/drop decision. The guard runs under the shard lock and
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

// append records an event, assigning its sequence number.
func (j *Journal) append(e Event) {
	if j == nil {
		return
	}
	j.appendTo(j.shard(e.Node), &e)
}

// appendTo is append with the stripe already resolved — scopes cache
// their stripe so steady-state emission skips the node hash. The event
// is passed by pointer purely to avoid copying the ~200-byte struct an
// extra time; appendTo copies it into the ring and retains nothing.
func (j *Journal) appendTo(s *journalShard, e *Event) {
	e.Seq = j.seq.Add(1)
	s.mu.Lock()
	if s.n == len(s.buf) {
		j.evictOne(s)
	}
	s.buf[(s.start+s.n)%len(s.buf)] = *e
	s.n++
	s.mu.Unlock()
	j.recorded.Load().Inc()
	if op := j.obs.Load(); op != nil {
		(*op).ObserveEvent(*e)
	}
}

// evictOne frees one slot in a full shard ring; the caller holds s.mu.
// Without a guard the shard's oldest event goes. With a guard the
// oldest event of an inactive trace goes instead (traceless events
// count as inactive), so a still-open trace keeps its spans; when every
// resident event is protected the shard falls back to plain oldest —
// bounded memory beats perfect retention.
func (j *Journal) evictOne(s *journalShard) {
	victim := 0
	if gp := j.guard.Load(); gp != nil {
		active := *gp
		for k := 0; k < s.n; k++ {
			e := &s.buf[(s.start+k)%len(s.buf)]
			if e.Trace == 0 || !active(e.Trace) {
				victim = k
				break
			}
		}
	}
	// Shift the events older than the victim forward one slot and
	// advance start: survivors keep their relative order.
	for k := victim; k > 0; k-- {
		s.buf[(s.start+k)%len(s.buf)] = s.buf[(s.start+k-1)%len(s.buf)]
	}
	s.start = (s.start + 1) % len(s.buf)
	s.n--
	s.dropped++
	j.droppedC.Load().Inc()
}

// DropTrace removes every resident event of one trace and reports how
// many events (and how many NDJSON-encoded bytes, trailing newlines
// included) were discarded — the accounting a tail sampler charges its
// dropped-bytes counters with. Dropping is physical: Events(), Trace(),
// and every exporter see only survivors, so a sampled journal costs
// O(kept). Sampler drops are deliberate, so they do not count into
// Dropped() or events_dropped_total, which measure ring-overflow loss.
func (j *Journal) DropTrace(id TraceID) (removed int, bytes int64) {
	if j == nil || id == 0 {
		return 0, 0
	}
	for i := range j.shards {
		s := &j.shards[i]
		s.mu.Lock()
		kept := 0
		for k := 0; k < s.n; k++ {
			e := s.buf[(s.start+k)%len(s.buf)]
			if e.Trace == id {
				removed++
				bytes += int64(EncodedSize(e))
				continue
			}
			s.buf[(s.start+kept)%len(s.buf)] = e
			kept++
		}
		s.n = kept
		s.mu.Unlock()
	}
	return removed, bytes
}

// newTraceID allocates a fresh trace ID.
func (j *Journal) newTraceID() TraceID {
	if j == nil {
		return 0
	}
	return TraceID(j.nextTrace.Add(1))
}

// newSpanID allocates a fresh span ID.
func (j *Journal) newSpanID() SpanID {
	if j == nil {
		return 0
	}
	return SpanID(j.nextSpan.Add(1))
}

// Len reports how many events are resident.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	total := 0
	for i := range j.shards {
		s := &j.shards[i]
		s.mu.Lock()
		total += s.n
		s.mu.Unlock()
	}
	return total
}

// Dropped reports how many events the rings have evicted.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	var total uint64
	for i := range j.shards {
		s := &j.shards[i]
		s.mu.Lock()
		total += s.dropped
		s.mu.Unlock()
	}
	return total
}

// Events returns a copy of the resident events in append order: the
// shards merge back into one stream ordered by journal-wide sequence
// number, so the result is identical to a flat single-ring journal fed
// the same workload.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	var out []Event
	for i := range j.shards {
		s := &j.shards[i]
		s.mu.Lock()
		for k := 0; k < s.n; k++ {
			out = append(out, s.buf[(s.start+k)%len(s.buf)])
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Newest returns a copy of the most recently appended resident event
// match accepts, searching each shard from its tail and copying nothing
// else — the lookup for "the latest event that …" on a journal too big
// to copy and sort per query. Among the shards' candidates the highest
// sequence number wins, and a shard is abandoned as soon as its events
// are older than the best candidate so far. match runs under the shard
// lock on the ring's own slot: it must not retain the pointer or call
// back into the journal.
func (j *Journal) Newest(match func(e *Event) bool) (Event, bool) {
	var best Event
	found := false
	if j == nil {
		return best, found
	}
	for i := range j.shards {
		s := &j.shards[i]
		s.mu.Lock()
		for k := s.n - 1; k >= 0; k-- {
			e := &s.buf[(s.start+k)%len(s.buf)]
			if found && e.Seq < best.Seq {
				break
			}
			if match(e) {
				best, found = *e, true
				break
			}
		}
		s.mu.Unlock()
	}
	return best, found
}

// Tail returns a copy of the newest n resident events in append order
// (all of them when n <= 0 or n exceeds the resident count).
func (j *Journal) Tail(n int) []Event {
	evs := j.Events()
	if n > 0 && n < len(evs) {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// Trace returns the resident events of one trace in append order.
func (j *Journal) Trace(id TraceID) []Event {
	if j == nil || id == 0 {
		return nil
	}
	var out []Event
	for _, e := range j.Events() {
		if e.Trace == id {
			out = append(out, e)
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
	id := j.newSpanID()
	j.append(Event{
		TS: ts, Span: id, Kind: KindInstant,
		Component: component, Name: name, Link: link, Attrs: attrs,
	})
	return Ref{Span: id}
}

// Scope is one request's handle into the journal: it owns a TraceID
// and a stack of open spans, so emission sites only name what happened
// and the scope supplies trace, parent, node, and VM context. Like
// trace.Breakdown it is owned by a single invocation and is not safe
// for concurrent use. A nil *Scope is valid and records nothing.
type Scope struct {
	j     *Journal
	trace TraceID
	stack []SpanID
	node  string
	vm    string
	// shard is the stripe of the scope's current node, cached so
	// steady-state emission pays the node hash once per SetNode instead
	// of once per event.
	shard *journalShard
	// stackBuf inlines the open-span stack for typical nesting depths,
	// so a scope costs one allocation instead of two.
	stackBuf [4]SpanID
}

// NewScope opens a new trace rooted at a span named name, beginning at
// virtual time ts. A nil journal yields a nil scope (which records
// nothing), so callers never branch.
func (j *Journal) NewScope(component, name string, ts time.Duration, attrs ...Attr) *Scope {
	if j == nil {
		return nil
	}
	s := &Scope{j: j, trace: j.newTraceID(), shard: j.shard("")}
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

// Current returns a Ref to the innermost open span — what a record
// carries so a later consumer can link back to its producer.
func (s *Scope) Current() Ref {
	if s == nil || len(s.stack) == 0 {
		return Ref{}
	}
	return Ref{Trace: s.trace, Span: s.stack[len(s.stack)-1]}
}

// SetNode attributes subsequent events to a cluster node (Perfetto
// pid). The cluster layer sets it at placement time.
func (s *Scope) SetNode(name string) {
	if s != nil {
		s.node = name
		s.shard = s.j.shard(name)
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
	id := s.j.newSpanID()
	e := Event{
		TS: ts, Trace: s.trace, Span: id, Parent: s.parent(), Kind: KindBegin,
		Component: component, Name: name, Node: s.node, VM: s.vm, Attrs: attrs,
	}
	s.j.appendTo(s.shard, &e)
	s.stack = append(s.stack, id)
}

// End closes the innermost open span. Ending with nothing open is a
// no-op (the journal is best-effort: a lost event must never take the
// platform down).
func (s *Scope) End(ts time.Duration, attrs ...Attr) {
	if s == nil || len(s.stack) == 0 {
		return
	}
	id := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	// End events do not repeat the Begin's component/name — consumers
	// resolve them by span ID.
	e := Event{
		TS: ts, Trace: s.trace, Span: id, Parent: s.parent(), Kind: KindEnd,
		Node: s.node, VM: s.vm, Attrs: attrs,
	}
	s.j.appendTo(s.shard, &e)
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
	id := s.j.newSpanID()
	e := Event{
		TS: ts, Trace: s.trace, Span: id, Parent: s.parent(), Kind: KindInstant,
		Component: component, Name: name, Node: s.node, VM: s.vm, Link: link, Attrs: attrs,
	}
	s.j.appendTo(s.shard, &e)
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
	return s.stack[len(s.stack)-1]
}
