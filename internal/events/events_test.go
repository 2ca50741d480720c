package events

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestScopeNestingAndParents(t *testing.T) {
	j := NewJournal(0)
	sc := j.NewScope("gateway", "POST /invoke", 0, A("function", "f"))
	sc.Begin("core", "invoke", 10)
	sc.Instant("msgbus", "produce", 20, A("topic", "t"))
	sc.End(30)
	sc.Close(40)

	evs := j.Events()
	if len(evs) != 5 {
		t.Fatalf("want 5 events, got %d", len(evs))
	}
	root, inner, inst, endInner, endRoot := evs[0], evs[1], evs[2], evs[3], evs[4]
	if root.Kind != KindBegin || root.Parent != 0 || root.Component != "gateway" {
		t.Fatalf("bad root: %+v", root)
	}
	if inner.Parent != root.Span {
		t.Fatalf("inner parent = %d, want %d", inner.Parent, root.Span)
	}
	if inst.Kind != KindInstant || inst.Parent != inner.Span {
		t.Fatalf("instant parent = %d, want %d", inst.Parent, inner.Span)
	}
	if endInner.Kind != KindEnd || endInner.Span != inner.Span {
		t.Fatalf("bad inner end: %+v", endInner)
	}
	if endRoot.Span != root.Span {
		t.Fatalf("bad root end: %+v", endRoot)
	}
	for i, e := range evs {
		if e.Trace != root.Trace {
			t.Fatalf("event %d trace %d != %d", i, e.Trace, root.Trace)
		}
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d seq %d", i, e.Seq)
		}
	}
}

func TestScopeCloseEndsAllOpenSpans(t *testing.T) {
	j := NewJournal(0)
	sc := j.NewScope("c", "root", 0)
	sc.Begin("c", "a", 1)
	sc.Begin("c", "b", 2)
	sc.Close(3, A("error", "boom"))
	if sc.OpenSpans() != 0 {
		t.Fatalf("open spans = %d after Close", sc.OpenSpans())
	}
	ends := 0
	for _, e := range j.Events() {
		if e.Kind == KindEnd {
			ends++
		}
	}
	if ends != 3 {
		t.Fatalf("want 3 end events, got %d", ends)
	}
	last := j.Events()[len(j.Events())-1]
	if len(last.Attrs) != 1 || last.Attrs[0].Key != "error" {
		t.Fatalf("Close attrs went to %+v", last)
	}
}

func TestEndWithNothingOpenIsNoop(t *testing.T) {
	j := NewJournal(0)
	sc := j.NewScope("c", "root", 0)
	sc.Close(1)
	before := j.Len()
	sc.End(2) // nothing open — must not panic or record
	if j.Len() != before {
		t.Fatalf("End on empty stack recorded an event")
	}
}

func TestCausalLink(t *testing.T) {
	j := NewJournal(0)
	prod := j.NewScope("core", "invoke", 0)
	ref := prod.Instant("msgbus", "produce", 5)
	cons := j.NewScope("core", "invoke", 0)
	cons.InstantLinked("msgbus", "consume", 7, ref)

	var linkEv *Event
	for i := range j.Events() {
		e := j.Events()[i]
		if e.Name == "consume" {
			linkEv = &e
		}
	}
	if linkEv == nil {
		t.Fatal("no consume event")
	}
	if linkEv.Link != ref {
		t.Fatalf("link = %+v, want %+v", linkEv.Link, ref)
	}
	if linkEv.Trace == ref.Trace {
		t.Fatal("test should cross traces")
	}
}

func TestRingDropsOldest(t *testing.T) {
	j := NewJournal(4)
	reg := metrics.NewRegistry()
	j.Instrument(reg)
	for i := 0; i < 7; i++ {
		j.Instant("c", "e", time.Duration(i))
	}
	if j.Len() != 4 {
		t.Fatalf("len = %d, want 4", j.Len())
	}
	if j.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", j.Dropped())
	}
	evs := j.Events()
	if evs[0].Seq != 4 || evs[3].Seq != 7 {
		t.Fatalf("ring kept seqs %d..%d, want 4..7", evs[0].Seq, evs[3].Seq)
	}
	snap := reg.Snapshot()
	found := map[string]int64{}
	for _, c := range snap.Counters {
		found[c.Name] = c.Value
	}
	if found["events_recorded_total"] != 7 || found["events_dropped_total"] != 3 {
		t.Fatalf("counters = %v", found)
	}
}

func TestNilJournalAndScopeAreSafe(t *testing.T) {
	var j *Journal
	if j.NewScope("c", "n", 0) != nil {
		t.Fatal("nil journal must yield nil scope")
	}
	j.Instant("c", "n", 0)
	j.Instrument(nil)
	if j.Len() != 0 || j.Events() != nil || j.Trace(1) != nil {
		t.Fatal("nil journal must be empty")
	}
	var s *Scope
	s.Begin("c", "n", 0)
	s.End(0)
	s.Instant("c", "n", 0)
	s.InstantLinked("c", "n", 0, Ref{})
	s.Close(0)
	s.SetNode("n")
	s.SetVM("v")
	if s.TraceID() != 0 || !s.Current().IsZero() || s.OpenSpans() != 0 {
		t.Fatal("nil scope must be inert")
	}
}

func TestTraceFilter(t *testing.T) {
	j := NewJournal(0)
	a := j.NewScope("c", "a", 0)
	b := j.NewScope("c", "b", 0)
	a.Close(1)
	b.Close(2)
	ta := j.Trace(a.TraceID())
	if len(ta) != 2 {
		t.Fatalf("trace a has %d events, want 2", len(ta))
	}
	for _, e := range ta {
		if e.Trace != a.TraceID() {
			t.Fatalf("foreign event in trace: %+v", e)
		}
	}
}

func TestJournalConcurrentAppend(t *testing.T) {
	j := NewJournal(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := j.NewScope("c", "root", 0)
			for i := 0; i < 100; i++ {
				sc.Instant("c", "tick", time.Duration(i))
			}
			sc.Close(100)
		}()
	}
	wg.Wait()
	if j.Len() != 8*102 {
		t.Fatalf("len = %d, want %d", j.Len(), 8*102)
	}
	seen := map[uint64]bool{}
	for _, e := range j.Events() {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

func TestNDJSONDeterministicAndParseable(t *testing.T) {
	build := func() []Event {
		j := NewJournal(0)
		sc := j.NewScope("gateway", "req", 0, A("function", "f"), A("mode", "warm"))
		sc.SetNode("node-00")
		sc.Begin("core", "invoke", 10)
		ref := sc.Instant("msgbus", "produce", 12)
		sc.InstantLinked("msgbus", "consume", 20, ref)
		sc.Close(30)
		return j.Events()
	}
	var a, b bytes.Buffer
	if err := WriteNDJSON(&a, build()); err != nil {
		t.Fatal(err)
	}
	if err := WriteNDJSON(&b, build()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("NDJSON dumps differ across identical builds")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("want 6 lines, got %d", len(lines))
	}
	for _, l := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
	}
	if !strings.Contains(a.String(), `"link_span"`) {
		t.Fatal("consume line lost its causal link")
	}
	if !strings.Contains(a.String(), `"node":"node-00"`) {
		t.Fatal("node attribution lost")
	}
}

func TestWriteFormatUnknown(t *testing.T) {
	if err := WriteFormat(&bytes.Buffer{}, nil, "yaml"); err == nil {
		t.Fatal("want error for unknown format")
	}
}
