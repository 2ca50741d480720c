package events

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// chromeDoc mirrors the wrapper WriteChromeTrace emits.
type chromeDoc struct {
	TraceEvents []struct {
		Name  string            `json:"name"`
		Cat   string            `json:"cat"`
		Phase string            `json:"ph"`
		TS    float64           `json:"ts"`
		PID   int               `json:"pid"`
		TID   int               `json:"tid"`
		ID    uint64            `json:"id"`
		BP    string            `json:"bp"`
		Args  map[string]string `json:"args"`
	} `json:"traceEvents"`
}

func buildChromeFixture() []Event {
	j := NewJournal(0)
	sc := j.NewScope("gateway", "req", 0)
	sc.SetNode("node-01")
	sc.Begin("core", "invoke", 2*time.Microsecond)
	sc.SetVM("fw-0001")
	ref := sc.Instant("msgbus", "produce", 4*time.Microsecond)
	sc.InstantLinked("msgbus", "consume", 6*time.Microsecond, ref)
	sc.End(8 * time.Microsecond)
	sc.Close(10 * time.Microsecond)

	// Second trace with a clock restart mid-trace (failover shape).
	sc2 := j.NewScope("cluster", "request", 0)
	sc2.SetNode("node-00")
	sc2.Instant("cluster", "place", 3*time.Microsecond)
	sc2.Instant("cluster", "failover", 0) // clock restarted
	sc2.Close(5 * time.Microsecond)
	return j.Events()
}

func decodeChrome(t *testing.T, evs []Event) chromeDoc {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, evs); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("chrome export is not valid JSON")
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestChromeTraceStructure(t *testing.T) {
	doc := decodeChrome(t, buildChromeFixture())
	var byPhase = map[string]int{}
	for _, e := range doc.TraceEvents {
		byPhase[e.Phase]++
	}
	if byPhase["B"] != 3 || byPhase["E"] != 3 {
		t.Fatalf("B/E counts = %d/%d, want 3/3", byPhase["B"], byPhase["E"])
	}
	if byPhase["i"] != 4 {
		t.Fatalf("instants = %d, want 4", byPhase["i"])
	}
	if byPhase["s"] != 1 || byPhase["f"] != 1 {
		t.Fatalf("flow s/f = %d/%d, want 1/1", byPhase["s"], byPhase["f"])
	}
	if byPhase["M"] == 0 {
		t.Fatal("no metadata events")
	}

	// One pid per node: host=1, node-00=2, node-01=3 (sorted).
	var procNames = map[int]string{}
	for _, e := range doc.TraceEvents {
		if e.Phase == "M" && e.Name == "process_name" {
			procNames[e.PID] = e.Args["name"]
		}
	}
	if procNames[1] != "host" || procNames[2] != "node-00" || procNames[3] != "node-01" {
		t.Fatalf("process names = %v", procNames)
	}

	// Flow source and sink share cat/name/id; sink carries bp=e.
	var src, sink *struct {
		Name  string            `json:"name"`
		Cat   string            `json:"cat"`
		Phase string            `json:"ph"`
		TS    float64           `json:"ts"`
		PID   int               `json:"pid"`
		TID   int               `json:"tid"`
		ID    uint64            `json:"id"`
		BP    string            `json:"bp"`
		Args  map[string]string `json:"args"`
	}
	for i := range doc.TraceEvents {
		e := &doc.TraceEvents[i]
		if e.Phase == "s" {
			src = e
		}
		if e.Phase == "f" {
			sink = e
		}
	}
	if src.Name != sink.Name || src.Cat != sink.Cat || src.ID != sink.ID {
		t.Fatalf("flow pair mismatch: %+v vs %+v", src, sink)
	}
	if sink.BP != "e" {
		t.Fatalf("flow sink bp = %q, want e", sink.BP)
	}
}

func TestChromeTraceMonotonicWithinTrack(t *testing.T) {
	doc := decodeChrome(t, buildChromeFixture())
	// Non-metadata timestamps must be globally non-decreasing in
	// emission order within each trace's events, and B/E must nest: an
	// E never precedes its B on the same track.
	begin := map[string]float64{}
	for _, e := range doc.TraceEvents {
		switch e.Phase {
		case "B":
			begin[e.Name] = e.TS
		case "E":
			if b, ok := begin[e.Name]; ok && e.TS < b {
				t.Fatalf("span %q ends (%v) before it begins (%v)", e.Name, e.TS, b)
			}
		}
	}
	// The restarted-clock instant must not travel back in time.
	var place, failover float64 = -1, -1
	for _, e := range doc.TraceEvents {
		if e.Name == "cluster:place" {
			place = e.TS
		}
		if e.Name == "cluster:failover" {
			failover = e.TS
		}
	}
	if failover < place {
		t.Fatalf("failover ts %v precedes place ts %v despite clock restart clamp", failover, place)
	}
}

func TestChromeTraceSerializesTraces(t *testing.T) {
	doc := decodeChrome(t, buildChromeFixture())
	// Trace 2's first event must start after trace 1's last (plus gap),
	// so traces don't overlay at t=0.
	var trace1Max, trace2Min float64 = 0, 1e18
	for _, e := range doc.TraceEvents {
		switch e.Name {
		case "gateway:req":
			if e.TS > trace1Max {
				trace1Max = e.TS
			}
		case "cluster:request":
			if e.TS < trace2Min {
				trace2Min = e.TS
			}
		}
	}
	if trace2Min <= trace1Max {
		t.Fatalf("traces overlap: trace1 max %v, trace2 min %v", trace1Max, trace2Min)
	}
}

func TestChromeEndUsesBeginTrack(t *testing.T) {
	j := NewJournal(0)
	sc := j.NewScope("core", "invoke", 0)
	sc.SetVM("fw-0001") // VM changes after the span opened
	sc.Close(time.Microsecond)
	doc := decodeChrome(t, j.Events())
	var bTID, eTID = -1, -2
	for _, e := range doc.TraceEvents {
		if e.Name == "core:invoke" && e.Phase == "B" {
			bTID = e.TID
		}
		if e.Phase == "E" {
			eTID = e.TID
		}
	}
	if bTID != eTID {
		t.Fatalf("E landed on tid %d, B on tid %d — B/E must share a track", eTID, bTID)
	}
}

// WriteFile picks the format by extension: Chrome trace-event JSON for
// *.json, NDJSON otherwise.
func TestWriteFileFormatByExtension(t *testing.T) {
	evs := buildChromeFixture()
	dir := t.TempDir()
	chromePath, ndPath := filepath.Join(dir, "trace.json"), filepath.Join(dir, "trace.ndjson")
	for _, path := range []string{chromePath, ndPath} {
		if err := WriteFile(path, evs); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("chrome dump: %v, %d events", err, len(doc.TraceEvents))
	}
	nd, err := os.ReadFile(ndPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(nd), "\n"), "\n")
	if len(lines) != len(evs) {
		t.Fatalf("ndjson dump has %d lines for %d events", len(lines), len(evs))
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("ndjson dump first line does not parse: %v", err)
	}
}

// refLine is the NDJSON wire form as encoding/json renders it: the
// reference the hand-written line encoder must match byte for byte.
type refLine struct {
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

func refEncode(t *testing.T, e Event) []byte {
	t.Helper()
	le := refLine{
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
	b, err := json.Marshal(le)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestLineEncoderMatchesEncodingJSON encodes seeded events whose
// strings draw on every case encoding/json escapes — quotes,
// backslashes, the short and \u00XX control escapes, HTML-sensitive
// bytes, U+2028/U+2029, invalid UTF-8 — and whose attrs repeat and
// reorder keys, and compares each line with encoding/json's.
func TestLineEncoderMatchesEncodingJSON(t *testing.T) {
	pieces := []string{
		"", "a", "vm-7", `"`, `\`, "\b", "\f", "\n", "\r", "\t", "\x00", "\x01", "\x1f", "\x7f",
		"<", ">", "&", "\u2028", "\u2029", "\xff", "\xc3", "\xe2\x80", "\u00e9", "\u65e5\u672c", "\ufffd", "\U0001f600", " ", "/",
	}
	rng := rand.New(rand.NewSource(3))
	str := func() string {
		var sb strings.Builder
		for n := rng.Intn(5); n > 0; n-- {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return sb.String()
	}
	id := func() uint64 {
		if rng.Intn(3) == 0 {
			return 0
		}
		return rng.Uint64() >> uint(rng.Intn(64))
	}
	var buf bytes.Buffer
	var evs []Event
	for i := 0; i < 3000; i++ {
		e := Event{
			Seq: id(), TS: time.Duration(int64(id()) - int64(id())), Trace: TraceID(id()),
			Span: SpanID(id()), Parent: SpanID(id()), Kind: Kind(str()),
			Component: str(), Name: str(), Node: str(), VM: str(),
			Link: Ref{Trace: TraceID(id()), Span: SpanID(id())},
		}
		keys := []string{"k", "a", "", "z", str()}
		for n := rng.Intn(6); n > 0; n-- {
			e.Attrs = append(e.Attrs, Attr{Key: keys[rng.Intn(len(keys))], Value: str()})
		}
		want := refEncode(t, e)
		if got := appendLine(nil, e); !bytes.Equal(got, want) {
			t.Fatalf("event %d: %+v\n got  %s\n want %s", i, e, got, want)
		}
		if got := EncodedSize(e); got != len(want) {
			t.Fatalf("event %d: EncodedSize = %d, want %d", i, got, len(want))
		}
		buf.Write(want)
		evs = append(evs, e)
	}
	var nd bytes.Buffer
	if err := WriteNDJSON(&nd, evs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nd.Bytes(), buf.Bytes()) {
		t.Fatal("WriteNDJSON differs from encoding/json line by line")
	}
}
