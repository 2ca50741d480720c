package insight

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/events"
)

// invokeTrace journals one synthetic cluster invoke:
// gateway → cluster:request → core:invoke on node → three stages, with
// the restore stage dominating (restoreCost) and optionally a fault
// instant inside it.
func invokeTrace(j *events.Journal, restoreCost time.Duration, fault bool) events.TraceID {
	ts := time.Duration(0)
	sc := j.NewScope("gateway", "POST /invoke", ts)
	sc.Begin("cluster", "request", ts, events.A("function", "fact"))
	sc.SetNode("node-01")
	sc.Begin("core", "invoke", ts, events.A("function", "fact"))

	sc.Begin("core", "snapshot-get", ts)
	ts += 2 * time.Millisecond
	sc.End(ts)

	sc.Begin("core", "restore-or-reuse", ts)
	if fault {
		sc.Instant("faults", "vmm.restore", ts, events.A("kind", "latency"), events.A("spike", "1.5s"))
	}
	ts += restoreCost
	sc.End(ts)

	sc.Begin("core", "execute", ts)
	ts += 5 * time.Millisecond
	sc.End(ts)

	sc.End(ts) // core:invoke
	sc.End(ts) // cluster:request
	id := sc.TraceID()
	sc.Close(ts)
	return id
}

func TestCriticalPathBlameRanksDominantStage(t *testing.T) {
	j := events.NewJournal(0)
	id := invokeTrace(j, 40*time.Millisecond, false)
	r := Analyze(j.Events())

	if r.TraceCount != 1 || len(r.Traces) != 1 {
		t.Fatalf("trace count = %d, want 1", r.TraceCount)
	}
	ti := r.Traces[0]
	if ti.Trace != id {
		t.Errorf("trace id = %d, want %d", ti.Trace, id)
	}
	if ti.Root != "gateway:POST /invoke" {
		t.Errorf("root = %q", ti.Root)
	}
	if ti.Total != 47*time.Millisecond {
		t.Errorf("total = %v, want 47ms", ti.Total)
	}
	if len(ti.Blame) == 0 || ti.Blame[0].Site != "core:restore-or-reuse" {
		t.Fatalf("top blame = %+v, want core:restore-or-reuse first", ti.Blame)
	}
	if ti.Blame[0].Self != 40*time.Millisecond {
		t.Errorf("restore self = %v, want 40ms", ti.Blame[0].Self)
	}

	// The critical path must descend gateway → cluster → invoke →
	// restore (the dominant stage).
	var sites []string
	for _, st := range ti.Path {
		sites = append(sites, st.Site)
	}
	want := []string{"gateway:POST /invoke", "cluster:request", "core:invoke", "core:restore-or-reuse"}
	if strings.Join(sites, "|") != strings.Join(want, "|") {
		t.Errorf("path = %v, want %v", sites, want)
	}
	// The leaf carries all its time as self.
	leaf := ti.Path[len(ti.Path)-1]
	if leaf.Self != leaf.Total || leaf.Self != 40*time.Millisecond {
		t.Errorf("leaf self/total = %v/%v", leaf.Self, leaf.Total)
	}
}

func TestFaultAttributionOnEnclosingSpan(t *testing.T) {
	j := events.NewJournal(0)
	invokeTrace(j, 1500*time.Millisecond, true)
	ti := Analyze(j.Events()).Traces[0]
	if ti.Faults != 1 {
		t.Fatalf("trace faults = %d, want 1", ti.Faults)
	}
	if ti.Blame[0].Site != "core:restore-or-reuse" || ti.Blame[0].Faults != 1 {
		t.Errorf("top blame = %+v, want faulted restore stage", ti.Blame[0])
	}
}

func TestClockRestartNormalization(t *testing.T) {
	// A failover attempt restarts the invocation clock at zero; the
	// normalizer must clamp rather than run time backwards.
	j := events.NewJournal(0)
	sc := j.NewScope("cluster", "request", 10*time.Millisecond)
	sc.Begin("core", "invoke", 12*time.Millisecond)
	sc.End(0) // clock restarted
	sc.Begin("core", "invoke", 3*time.Millisecond)
	sc.End(4 * time.Millisecond)
	sc.Close(4 * time.Millisecond)

	ti := Analyze(j.Events()).Traces[0]
	for _, b := range ti.Blame {
		if b.Self < 0 || b.Total < 0 {
			t.Errorf("negative time after normalization: %+v", b)
		}
	}
	// First event shifts to 0; begin@12ms → 2ms; end@0 clamps to 2ms;
	// second attempt 3ms→4ms lands at... shift = 2ms-3ms already
	// clamped: norm(3ms) < lastNorm(2ms)? no (3-10 = -7 +shift...).
	if ti.Total < 0 {
		t.Errorf("total = %v", ti.Total)
	}
}

func TestServiceGraphEdgesAndBusHops(t *testing.T) {
	j := events.NewJournal(0)
	sc := j.NewScope("gateway", "POST /invoke", 0)
	sc.SetNode("node-01")
	sc.Begin("core", "invoke", 0)
	sc.Begin("core", "topic-produce", time.Millisecond)
	sc.Instant("msgbus", "produce", time.Millisecond, events.A("topic", "fn-fact"))
	sc.End(2 * time.Millisecond)
	sc.Begin("core", "execute", 2*time.Millisecond)
	sc.InstantLinked("msgbus", "consume", 3*time.Millisecond, events.Ref{}, events.A("topic", "fn-fact"))
	sc.End(4 * time.Millisecond)
	sc.End(4 * time.Millisecond)
	sc.Close(4 * time.Millisecond)

	g := Analyze(j.Events()).Graph
	find := func(from, to string) *GraphEdge {
		for i := range g.Edges {
			if g.Edges[i].From == from && g.Edges[i].To == to {
				return &g.Edges[i]
			}
		}
		return nil
	}
	if e := find("gateway", "node:node-01"); e == nil || e.Count != 1 {
		t.Errorf("gateway→node edge = %+v", e)
	}
	if e := find("node:node-01", "stage:topic-produce"); e == nil {
		t.Error("missing node→stage edge")
	}
	if e := find("stage:topic-produce", "topic:fn-fact"); e == nil || e.Count != 1 {
		t.Errorf("produce hop edge = %+v", e)
	}
	if e := find("topic:fn-fact", "stage:execute"); e == nil || e.Count != 1 {
		t.Errorf("consume hop edge = %+v", e)
	}
	if g.WindowNS != int64(4*time.Millisecond) {
		t.Errorf("window = %d", g.WindowNS)
	}
}

func TestReportDeterminism(t *testing.T) {
	build := func() *bytes.Buffer {
		j := events.NewJournal(0)
		invokeTrace(j, 40*time.Millisecond, true)
		invokeTrace(j, 10*time.Millisecond, false)
		r := Analyze(j.Events())
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(r); err != nil {
			t.Fatal(err)
		}
		if err := r.Graph.WriteDOT(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	if a, b := build(), build(); !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("same-workload reports differ")
	}
}

func TestWorkflowDoneClosesDAGInsight(t *testing.T) {
	// A workflow run trace: run root, two steps, terminal done instant.
	j := events.NewJournal(0)
	sc := j.NewScope("workflow", "run", 0, events.A("workflow", "alexa"), events.A("run", "r000001"))
	sc.Begin("workflow", "step", 0, events.A("step", "parse"))
	sc.End(3 * time.Millisecond)
	sc.Begin("workflow", "step", 3*time.Millisecond, events.A("step", "reply"))
	sc.End(9 * time.Millisecond)
	sc.Instant("workflow", "done", 9*time.Millisecond,
		events.A("status", "completed"), events.A("steps_completed", "2"))
	sc.Close(9 * time.Millisecond)

	r := Analyze(j.Events())
	ti := r.Traces[0]
	if ti.Root != "workflow:run" || ti.Total != 9*time.Millisecond {
		t.Errorf("workflow insight = root %q total %v", ti.Root, ti.Total)
	}
	// Critical path descends into the dominant step.
	if leaf := ti.Path[len(ti.Path)-1]; leaf.Site != "workflow:step" {
		t.Errorf("workflow path leaf = %+v", leaf)
	}
	var names []string
	for _, n := range r.Graph.Nodes {
		names = append(names, n.Name)
	}
	joined := strings.Join(names, "|")
	for _, want := range []string{"workflow:alexa", "step:parse", "step:reply"} {
		if !strings.Contains(joined, want) {
			t.Errorf("graph nodes %v missing %q", names, want)
		}
	}
}
