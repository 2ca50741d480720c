package events

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// lineEvent is the NDJSON wire form of an Event. Fields marshal in
// struct order with omitted zeros, so the dump is byte-stable for a
// given journal.
type lineEvent struct {
	Seq       uint64            `json:"seq"`
	TSNS      int64             `json:"ts_ns"`
	Trace     TraceID           `json:"trace,omitempty"`
	Span      SpanID            `json:"span"`
	Parent    SpanID            `json:"parent,omitempty"`
	Kind      Kind              `json:"kind"`
	Component string            `json:"component,omitempty"`
	Name      string            `json:"name,omitempty"`
	Node      string            `json:"node,omitempty"`
	VM        string            `json:"vm,omitempty"`
	LinkTrace TraceID           `json:"link_trace,omitempty"`
	LinkSpan  SpanID            `json:"link_span,omitempty"`
	Attrs     map[string]string `json:"attrs,omitempty"`
}

func toLine(e Event) lineEvent {
	le := lineEvent{
		Seq: e.Seq, TSNS: int64(e.TS), Trace: e.Trace, Span: e.Span,
		Parent: e.Parent, Kind: e.Kind, Component: e.Component,
		Name: e.Name, Node: e.Node, VM: e.VM,
		LinkTrace: e.Link.Trace, LinkSpan: e.Link.Span,
	}
	if len(e.Attrs) > 0 {
		le.Attrs = make(map[string]string, len(e.Attrs))
		for _, a := range e.Attrs {
			le.Attrs[a.Key] = a.Value
		}
	}
	return le
}

// WriteNDJSON renders events one JSON object per line. The encoding is
// deterministic (ordered struct fields; attr maps are small and Go's
// encoder sorts map keys), so two same-seed runs dump identical bytes —
// the property the replay test pins down.
func WriteNDJSON(w io.Writer, evs []Event) error {
	for _, e := range evs {
		b, err := json.Marshal(toLine(e))
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// EncodedSize reports the NDJSON-encoded size of one event in bytes,
// trailing newline included — the unit of the telemetry plane's
// dropped-bytes accounting, so "bytes saved" matches what an export
// would actually have written.
func EncodedSize(e Event) int {
	b, err := json.Marshal(toLine(e))
	if err != nil {
		return 0
	}
	return len(b) + 1
}

// chromeEvent is one entry of the Chrome trace-event format
// (the "JSON Array Format" Perfetto and chrome://tracing load).
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"` // microseconds
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	ID    uint64            `json:"id,omitempty"`
	BP    string            `json:"bp,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

// traceGap separates serialized traces on the Chrome timeline. Every
// invocation clock starts at zero, so traces are laid end to end in
// first-seen order rather than stacked on top of each other.
const traceGap = time.Millisecond

// WriteChromeTrace renders events as Chrome trace-event JSON:
// one pid per node (pid 1 = the host/control plane), one tid per VM
// (tid 1 = the node's control plane), virtual-time microseconds.
//
// Two normalizations bridge the journal's per-invocation clocks to the
// format's single timeline: within a trace, timestamps are clamped
// monotonic (a failover attempt restarts its clock at zero; the clamp
// shifts it forward past the failed attempt), and across traces each
// trace is offset to start after the previous one ends.
func WriteChromeTrace(w io.Writer, evs []Event) error {
	// pid per node, in sorted-name order for stable output.
	nodeSet := map[string]bool{}
	vmSet := map[string]bool{}
	for _, e := range evs {
		if e.Node != "" {
			nodeSet[e.Node] = true
		}
		if e.VM != "" {
			vmSet[e.VM] = true
		}
	}
	nodes := sortedKeys(nodeSet)
	vms := sortedKeys(vmSet)
	pid := map[string]int{"": 1}
	for i, n := range nodes {
		pid[n] = 2 + i
	}
	tid := map[string]int{"": 1}
	for i, v := range vms {
		tid[v] = 2 + i
	}

	var out []chromeEvent
	meta := func(ph, name string, p, t int, label string) {
		ce := chromeEvent{Name: name, Phase: ph, PID: p, TID: t,
			Args: map[string]string{"name": label}}
		out = append(out, ce)
	}
	meta("M", "process_name", 1, 0, "host")
	for _, n := range nodes {
		meta("M", "process_name", pid[n], 0, n)
	}
	for p := 1; p <= 1+len(nodes); p++ {
		meta("M", "thread_name", p, 1, "control-plane")
		for _, v := range vms {
			meta("M", "thread_name", p, tid[v], v)
		}
	}

	// Normalize timestamps: per-trace monotonic clamp, then serialize
	// traces along the timeline in first-seen order.
	type traceState struct {
		base     time.Duration // timeline position where this trace starts
		shift    time.Duration // current clamp shift within the trace
		lastNorm time.Duration // last in-trace normalized ts
		maxNorm  time.Duration
	}
	states := map[TraceID]*traceState{}
	var nextBase time.Duration
	norm := make([]time.Duration, len(evs))
	for i, e := range evs {
		st := states[e.Trace]
		if st == nil {
			st = &traceState{base: nextBase, shift: -e.TS}
			states[e.Trace] = st
		}
		n := e.TS + st.shift
		if n < st.lastNorm {
			// Clock restarted (failover attempt): shift forward.
			st.shift += st.lastNorm - n
			n = st.lastNorm
		}
		st.lastNorm = n
		if n > st.maxNorm {
			st.maxNorm = n
		}
		if st.base+st.maxNorm+traceGap > nextBase {
			nextBase = st.base + st.maxNorm + traceGap
		}
		norm[i] = st.base + n
	}

	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

	// B events remember their pid/tid so the matching E lands on the
	// same track even if the scope moved node/VM mid-span.
	type track struct{ pid, tid int }
	spanTrack := map[SpanID]track{}
	// First occurrence of each span, for flow-link sources.
	spanFirst := map[Ref]int{}
	for i, e := range evs {
		r := Ref{Trace: e.Trace, Span: e.Span}
		if _, ok := spanFirst[r]; !ok {
			spanFirst[r] = i
		}
	}

	flowID := uint64(0)
	for i, e := range evs {
		p, t := pid[e.Node], tid[e.VM]
		name := e.Name
		if e.Component != "" {
			name = e.Component + ":" + e.Name
		}
		args := attrArgs(e)
		switch e.Kind {
		case KindBegin:
			spanTrack[e.Span] = track{p, t}
			out = append(out, chromeEvent{Name: name, Cat: e.Component,
				Phase: "B", TS: us(norm[i]), PID: p, TID: t, Args: args})
		case KindEnd:
			if tr, ok := spanTrack[e.Span]; ok {
				p, t = tr.pid, tr.tid
			}
			out = append(out, chromeEvent{Name: name, Phase: "E",
				TS: us(norm[i]), PID: p, TID: t, Args: args})
		case KindInstant:
			out = append(out, chromeEvent{Name: name, Cat: e.Component,
				Phase: "i", TS: us(norm[i]), PID: p, TID: t, Scope: "t", Args: args})
		}
		if !e.Link.IsZero() {
			if src, ok := spanFirst[e.Link]; ok {
				flowID++
				se := evs[src]
				sp, stid := pid[se.Node], tid[se.VM]
				out = append(out,
					chromeEvent{Name: "link", Cat: "flow", Phase: "s",
						TS: us(norm[src]), PID: sp, TID: stid, ID: flowID},
					chromeEvent{Name: "link", Cat: "flow", Phase: "f",
						TS: us(norm[i]), PID: p, TID: t, ID: flowID, BP: "e"})
			}
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{out})
}

func attrArgs(e Event) map[string]string {
	if len(e.Attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(e.Attrs))
	for _, a := range e.Attrs {
		m[a.Key] = a.Value
	}
	return m
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WriteFormat dispatches between the journal's export formats:
// "ndjson" and "chrome".
func WriteFormat(w io.Writer, evs []Event, format string) error {
	switch format {
	case "ndjson":
		return WriteNDJSON(w, evs)
	case "chrome":
		return WriteChromeTrace(w, evs)
	default:
		return fmt.Errorf("events: unknown export format %q (want ndjson or chrome)", format)
	}
}

// WriteFile writes evs to path: Chrome trace-event JSON when the name
// ends in .json (load it in Perfetto), NDJSON otherwise — the
// -trace-dump flag of fwsim and fwcli.
func WriteFile(path string, evs []Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	format := "ndjson"
	if strings.HasSuffix(path, ".json") {
		format = "chrome"
	}
	if err := WriteFormat(f, evs, format); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
