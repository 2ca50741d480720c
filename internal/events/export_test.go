package events

import (
	"bytes"
	"encoding/json"
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
