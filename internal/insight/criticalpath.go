package insight

import (
	"sort"
	"time"

	"repro/internal/events"
)

// span is one reconstructed journal span with normalized times.
type span struct {
	id        events.SpanID
	parent    events.SpanID
	component string
	name      string
	node      string
	vm        string
	start     time.Duration // normalized (trace starts at 0, clamped monotonic)
	end       time.Duration
	closed    bool
	errMsg    string
	attrs     map[string]string // begin attrs (topic, step, workflow, ...)
	faults    int               // fault instants attached to this span
	children  []*span

	total time.Duration // end - start
	self  time.Duration // total minus the children's totals
}

// instant is one non-span event retained for graph building (msgbus
// produce/consume hops, cluster failover links, fault marks).
type instant struct {
	parent    events.SpanID
	component string
	name      string
	attrs     map[string]string
}

// traceTree is one trace's reconstructed span forest.
type traceTree struct {
	id       events.TraceID
	spans    map[events.SpanID]*span
	order    []*span // spans in begin order
	roots    []*span
	instants []instant
	total    time.Duration // max normalized timestamp seen
}

// buildTrees reconstructs one tree per trace from a journal event
// stream (append order). Traceless events (watchdog alerts, global
// instants) are skipped. Per-trace timestamps are normalized exactly
// like the Chrome exporter: shifted to start at zero, then clamped
// monotonic so a failover attempt's clock restart cannot run time
// backwards. Trees come back in first-seen order.
func buildTrees(evs []events.Event) []*traceTree {
	trees := map[events.TraceID]*traceTree{}
	shifts := map[events.TraceID]*struct{ shift, lastNorm time.Duration }{}
	var order []*traceTree
	for _, e := range evs {
		if e.Trace == 0 {
			continue
		}
		t := trees[e.Trace]
		if t == nil {
			t = &traceTree{id: e.Trace, spans: map[events.SpanID]*span{}}
			trees[e.Trace] = t
			order = append(order, t)
			shifts[e.Trace] = &struct{ shift, lastNorm time.Duration }{shift: -e.TS}
		}
		st := shifts[e.Trace]
		n := e.TS + st.shift
		if n < st.lastNorm {
			st.shift += st.lastNorm - n
			n = st.lastNorm
		}
		st.lastNorm = n
		if n > t.total {
			t.total = n
		}
		switch e.Kind {
		case events.KindBegin:
			s := &span{
				id: e.Span, parent: e.Parent,
				component: e.Component, name: e.Name,
				node: e.Node, vm: e.VM,
				start: n, end: n,
				attrs: events.AttrMap(e.Attrs),
			}
			t.spans[e.Span] = s
			t.order = append(t.order, s)
		case events.KindEnd:
			if s := t.spans[e.Span]; s != nil {
				s.end = n
				s.closed = true
				if msg, ok := events.AttrValue(e.Attrs, "error"); ok {
					s.errMsg = msg
				}
			}
		case events.KindInstant:
			if e.Component == "faults" {
				if s := t.spans[e.Parent]; s != nil {
					s.faults++
				}
			}
			t.instants = append(t.instants, instant{
				parent: e.Parent, component: e.Component, name: e.Name,
				attrs: events.AttrMap(e.Attrs),
			})
		}
	}
	for _, t := range order {
		t.finish()
	}
	return order
}

// finish closes unterminated spans at the trace end, wires children,
// and computes total/self times.
func (t *traceTree) finish() {
	for _, s := range t.order {
		if !s.closed {
			s.end = t.total
		}
		if s.end < s.start {
			s.end = s.start
		}
		s.total = s.end - s.start
	}
	for _, s := range t.order {
		if p := t.spans[s.parent]; p != nil && p != s {
			p.children = append(p.children, s)
		} else {
			t.roots = append(t.roots, s)
		}
	}
	for _, s := range t.order {
		childSum := time.Duration(0)
		for _, c := range s.children {
			childSum += c.total
		}
		s.self = s.total - childSum
		if s.self < 0 {
			// Overlapping children (concurrent sub-spans share the
			// parent's wall): the parent keeps no self time.
			s.self = 0
		}
	}
}

// site names a span's aggregation key in the blame table.
func (s *span) site() string { return s.component + ":" + s.name }

// PathStep is one hop of a trace's critical path.
type PathStep struct {
	Span       uint64        `json:"span"`
	Site       string        `json:"site"` // component:name
	Node       string        `json:"node,omitempty"`
	VM         string        `json:"vm,omitempty"`
	Start      time.Duration `json:"start_ns"`
	End        time.Duration `json:"end_ns"`
	Self       time.Duration `json:"self_ns"`
	Total      time.Duration `json:"total_ns"`
	ShareMilli int64         `json:"share_milli"` // Total/root-total in 1/1000ths
	Error      string        `json:"error,omitempty"`
	Faults     int           `json:"faults,omitempty"`
}

// BlameEntry is one row of the ranked blame table: a span site with
// its aggregate self time across the trace.
type BlameEntry struct {
	Site       string        `json:"site"`
	Count      int           `json:"count"`
	Self       time.Duration `json:"self_ns"`
	Total      time.Duration `json:"total_ns"`
	ShareMilli int64         `json:"share_milli"` // Self/trace-total in 1/1000ths
	Faults     int           `json:"faults,omitempty"`
	Errors     int           `json:"errors,omitempty"`
}

// TraceInsight is the critical-path analysis of one trace.
type TraceInsight struct {
	Trace  events.TraceID `json:"trace"`
	Root   string         `json:"root"` // root span's site
	Total  time.Duration  `json:"total_ns"`
	Spans  int            `json:"spans"`
	Faults int            `json:"faults,omitempty"`
	Errors int            `json:"errors,omitempty"`
	Path   []PathStep     `json:"path"`
	Blame  []BlameEntry   `json:"blame"`
}

// insight computes the critical path and blame table of one trace.
func (t *traceTree) insight() TraceInsight {
	ti := TraceInsight{Trace: t.id, Total: t.total, Spans: len(t.order)}
	if len(t.roots) == 0 {
		return ti
	}
	root := t.roots[0]
	ti.Root = root.site()
	if root.total > ti.Total {
		ti.Total = root.total
	}

	// Critical path: from the root, repeatedly descend into the child
	// holding the most total time. Children on one virtual clock run
	// sequentially, so the dominant child is the hop that decides the
	// end-to-end latency.
	denom := ti.Total
	if denom <= 0 {
		denom = 1
	}
	for s := root; s != nil; {
		ti.Path = append(ti.Path, PathStep{
			Span: uint64(s.id), Site: s.site(), Node: s.node, VM: s.vm,
			Start: s.start, End: s.end, Self: s.self, Total: s.total,
			ShareMilli: int64(s.total * 1000 / denom),
			Error:      s.errMsg, Faults: s.faults,
		})
		var next *span
		for _, c := range s.children {
			if next == nil || c.total > next.total ||
				(c.total == next.total && c.start < next.start) {
				next = c
			}
		}
		s = next
	}

	// Blame: aggregate self time by site across every span of the
	// trace, ranked by self descending.
	agg := map[string]*BlameEntry{}
	var sites []string
	for _, s := range t.order {
		ti.Faults += s.faults
		if s.errMsg != "" {
			ti.Errors++
		}
		b := agg[s.site()]
		if b == nil {
			b = &BlameEntry{Site: s.site()}
			agg[s.site()] = b
			sites = append(sites, s.site())
		}
		b.Count++
		b.Self += s.self
		b.Total += s.total
		b.Faults += s.faults
		if s.errMsg != "" {
			b.Errors++
		}
	}
	sort.Strings(sites)
	for _, site := range sites {
		b := agg[site]
		b.ShareMilli = int64(b.Self * 1000 / denom)
		ti.Blame = append(ti.Blame, *b)
	}
	sort.SliceStable(ti.Blame, func(i, j int) bool {
		if ti.Blame[i].Self != ti.Blame[j].Self {
			return ti.Blame[i].Self > ti.Blame[j].Self
		}
		return ti.Blame[i].Site < ti.Blame[j].Site
	})
	return ti
}
