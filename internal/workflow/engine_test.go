package workflow_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/metrics"
	"repro/internal/msgbus"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/workflow"
)

// fakeInvoker is a scripted function backend honoring the platform's
// chained-invocation contract: with opts.Parent set, the call shares
// the parent's clock and breakdown, exactly as core.Framework does.
type fakeInvoker struct {
	handlers map[string]func(params map[string]any) (any, error)
	calls    []string
	params   map[string][]map[string]any
	cost     time.Duration
}

func newFakeInvoker() *fakeInvoker {
	return &fakeInvoker{
		handlers: make(map[string]func(map[string]any) (any, error)),
		params:   make(map[string][]map[string]any),
		cost:     time.Millisecond,
	}
}

func (f *fakeInvoker) handle(name string, fn func(map[string]any) (any, error)) {
	f.handlers[name] = fn
}

func (f *fakeInvoker) Invoke(name string, params lang.Value, opts platform.InvokeOptions) (*platform.Invocation, error) {
	inv := opts.Parent
	if inv == nil {
		inv = platform.NewInvocation(name)
	}
	inv.Clock.Charge("fake-invoke", f.cost)
	var in map[string]any
	if gv, err := runtime.ToGo(params); err == nil {
		in, _ = gv.(map[string]any)
	}
	f.calls = append(f.calls, name)
	f.params[name] = append(f.params[name], in)
	h := f.handlers[name]
	if h == nil {
		return inv, fmt.Errorf("fake: unknown function %q", name)
	}
	res, err := h(in)
	if err != nil {
		return inv, err
	}
	v, cerr := runtime.FromGo(res)
	if cerr != nil {
		return inv, cerr
	}
	inv.Result = v
	return inv, nil
}

// harness bundles one engine with its substrate.
type harness struct {
	bus     *msgbus.Broker
	journal *events.Journal
	reg     *metrics.Registry
	inv     *fakeInvoker
	eng     *workflow.Engine
}

func newHarness(t *testing.T, opts workflow.Options) *harness {
	t.Helper()
	h := &harness{
		bus:     msgbus.NewBroker(),
		journal: events.NewJournal(0),
		reg:     metrics.NewRegistry(),
		inv:     newFakeInvoker(),
	}
	h.bus.Instrument(h.reg)
	h.eng = workflow.New(h.bus, h.journal, h.reg, h.inv, opts)
	return h
}

func (h *harness) counter(name string) int64 {
	return h.reg.Counter(name).Value()
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec workflow.Spec
		want string
	}{
		{"no name", workflow.Spec{Steps: []workflow.Step{{ID: "a", Function: "f"}}}, "needs a name"},
		{"no steps", workflow.Spec{Name: "w"}, "at least one step"},
		{"dup id", workflow.Spec{Name: "w", Steps: []workflow.Step{
			{ID: "a", Function: "f"}, {ID: "a", Function: "g"}}}, "duplicate step id"},
		{"unknown dep", workflow.Spec{Name: "w", Steps: []workflow.Step{
			{ID: "a", Function: "f", After: []string{"zz"}}}}, "unknown step"},
		{"condition outside after", workflow.Spec{Name: "w", Steps: []workflow.Step{
			{ID: "a", Function: "f"},
			{ID: "b", Function: "g", When: &workflow.Condition{Step: "a", Equals: "1"}}}},
			"not in its after list"},
		{"cycle", workflow.Spec{Name: "w", Steps: []workflow.Step{
			{ID: "a", Function: "f", After: []string{"b"}},
			{ID: "b", Function: "g", After: []string{"a"}}}}, "cycle"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestParseSpec(t *testing.T) {
	js := `{
	  "name": "demo",
	  "steps": [
	    {"id": "a", "function": "fn-a"},
	    {"id": "b", "function": "fn-b", "after": ["a"],
	     "when": {"step": "a", "key": "kind", "equals": "x"},
	     "input": {"v": "$steps.a.kind"}},
	    {"id": "c", "function": "fn-c", "after": ["a"], "input_from": "$steps.a"}
	  ]
	}`
	spec, err := workflow.ParseSpec([]byte(js))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if spec.Name != "demo" || len(spec.Steps) != 3 {
		t.Fatalf("parsed %q with %d steps", spec.Name, len(spec.Steps))
	}
	if spec.Steps[1].When == nil || spec.Steps[1].When.Equals != "x" {
		t.Fatalf("when clause lost: %+v", spec.Steps[1])
	}
	if spec.Steps[2].InputFrom != "$steps.a" {
		t.Fatalf("input_from lost: %+v", spec.Steps[2])
	}
	if _, err := workflow.ParseSpec([]byte(`{"name": "bad"}`)); err == nil {
		t.Fatal("ParseSpec accepted a spec without steps")
	}
}

func TestChainInputMappingAndTrace(t *testing.T) {
	h := newHarness(t, workflow.Options{})
	h.inv.handle("validate", func(in map[string]any) (any, error) {
		return map[string]any{"doc": in["payload"], "ok": true}, nil
	})
	h.inv.handle("persist", func(in map[string]any) (any, error) {
		if in["ok"] != true {
			return nil, fmt.Errorf("persist got %v", in)
		}
		return map[string]any{"rev": "1-a"}, nil
	})
	h.inv.handle("notify", func(in map[string]any) (any, error) {
		return map[string]any{"sent": in["rev"]}, nil
	})
	spec := &workflow.Spec{Name: "ingest", Steps: []workflow.Step{
		{ID: "validate", Function: "validate", Input: map[string]any{"payload": "$input.payload"}},
		{ID: "persist", Function: "persist", After: []string{"validate"}, InputFrom: "$steps.validate"},
		{ID: "notify", Function: "notify", After: []string{"persist"},
			Input: map[string]any{"rev": "$steps.persist.rev", "tag": "done"}},
	}}
	if err := h.eng.Register(spec); err != nil {
		t.Fatalf("Register: %v", err)
	}
	run, err := h.eng.Run("ingest", map[string]any{"payload": "w-1"}, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if run.Status != workflow.RunCompleted {
		t.Fatalf("run status %q, want completed", run.Status)
	}
	if got := h.inv.calls; strings.Join(got, ",") != "validate,persist,notify" {
		t.Fatalf("call order %v", got)
	}
	if p := h.inv.params["validate"][0]; p["payload"] != "w-1" {
		t.Fatalf("$input.payload resolved to %v", p["payload"])
	}
	if p := h.inv.params["persist"][0]; p["doc"] != "w-1" || p["ok"] != true {
		t.Fatalf("input_from gave persist %v", p)
	}
	if p := h.inv.params["notify"][0]; p["rev"] != "1-a" || p["tag"] != "done" {
		t.Fatalf("mixed literal/ref input gave notify %v", p)
	}
	if got := h.counter("workflow_steps_completed_total"); got != 3 {
		t.Fatalf("steps_completed = %d, want 3", got)
	}
	if got := h.counter("workflow_steps_started_total"); got != 3 {
		t.Fatalf("steps_started = %d, want 3", got)
	}

	// The whole run — workflow span, step spans, produce/consume batch
	// events — must share ONE trace.
	evs := h.journal.Trace(run.TraceID())
	if len(evs) == 0 {
		t.Fatal("run trace is empty")
	}
	names := make(map[string]int)
	for _, e := range evs {
		names[e.Component+"/"+e.Name]++
	}
	if names["workflow/step"] != 3 {
		t.Fatalf("trace has %d workflow/step begin events, want 3 (%v)", names["workflow/step"], names)
	}
	if names["msgbus/consume-batch"] == 0 || names["msgbus/produce-batch"] == 0 {
		t.Fatalf("trace missing bus batch events: %v", names)
	}
	for _, e := range h.journal.Events() {
		if e.Trace != run.TraceID() {
			t.Fatalf("event %s/%s escaped the run trace", e.Component, e.Name)
		}
	}
}

func TestFanOutFanInAndBranches(t *testing.T) {
	h := newHarness(t, workflow.Options{})
	for _, name := range []string{"split", "left", "right", "join", "cold"} {
		name := name
		h.inv.handle(name, func(in map[string]any) (any, error) {
			return map[string]any{"from": name, "kind": "warm"}, nil
		})
	}
	spec := &workflow.Spec{Name: "diamond", Steps: []workflow.Step{
		{ID: "split", Function: "split"},
		{ID: "left", Function: "left", After: []string{"split"}},
		{ID: "right", Function: "right", After: []string{"split"}},
		// Conditional branch that must NOT run: split reports warm.
		{ID: "cold", Function: "cold", After: []string{"split"},
			When: &workflow.Condition{Step: "split", Key: "kind", Equals: "cold"}},
		{ID: "join", Function: "join", After: []string{"left", "right", "cold"},
			Input: map[string]any{"l": "$steps.left.from", "r": "$steps.right.from"}},
	}}
	if err := h.eng.Register(spec); err != nil {
		t.Fatalf("Register: %v", err)
	}
	run, err := h.eng.Run("diamond", nil, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if run.Status != workflow.RunCompleted {
		t.Fatalf("run status %q, want completed", run.Status)
	}
	states := map[string]string{}
	for _, st := range run.Steps(h.eng) {
		states[st.ID] = st.Status
	}
	want := map[string]string{
		"split": "completed", "left": "completed", "right": "completed",
		"cold": "skipped", "join": "completed",
	}
	for id, s := range want {
		if states[id] != s {
			t.Fatalf("step %s status %q, want %q (all: %v)", id, states[id], s, states)
		}
	}
	// The join fired after the skipped branch and saw both fan-out
	// results.
	if p := h.inv.params["join"][0]; p["l"] != "left" || p["r"] != "right" {
		t.Fatalf("join params %v", p)
	}
	if got := h.counter("workflow_steps_skipped_total"); got != 1 {
		t.Fatalf("steps_skipped = %d, want 1", got)
	}
	if h.counter("workflow_steps_dead_total") != 0 {
		t.Fatal("no step should have died")
	}
}

func TestSkipCascade(t *testing.T) {
	h := newHarness(t, workflow.Options{})
	h.inv.handle("head", func(in map[string]any) (any, error) {
		return map[string]any{"go": "no"}, nil
	})
	h.inv.handle("gated", func(in map[string]any) (any, error) { return "ran", nil })
	h.inv.handle("tail", func(in map[string]any) (any, error) { return "ran", nil })
	spec := &workflow.Spec{Name: "cascade", Steps: []workflow.Step{
		{ID: "head", Function: "head"},
		{ID: "gated", Function: "gated", After: []string{"head"},
			When: &workflow.Condition{Step: "head", Key: "go", Equals: "yes"}},
		{ID: "tail", Function: "tail", After: []string{"gated"}},
	}}
	if err := h.eng.Register(spec); err != nil {
		t.Fatalf("Register: %v", err)
	}
	run, err := h.eng.Run("cascade", nil, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if run.Status != workflow.RunCompleted {
		t.Fatalf("run status %q, want completed (skips are terminal-OK)", run.Status)
	}
	for _, st := range run.Steps(h.eng) {
		if st.ID != "head" && st.Status != workflow.StepSkipped {
			t.Fatalf("step %s status %q, want skipped", st.ID, st.Status)
		}
	}
	if len(h.inv.params["gated"])+len(h.inv.params["tail"]) != 0 {
		t.Fatal("skipped steps were invoked")
	}
}

func TestRetryThenComplete(t *testing.T) {
	h := newHarness(t, workflow.Options{Retry: faults.DefaultRetryPolicy()})
	tries := 0
	h.inv.handle("flaky", func(in map[string]any) (any, error) {
		tries++
		if tries < 3 {
			return nil, fmt.Errorf("transient: %w", faults.ErrInjected)
		}
		return "ok", nil
	})
	spec := &workflow.Spec{Name: "w", Steps: []workflow.Step{{ID: "s", Function: "flaky"}}}
	if err := h.eng.Register(spec); err != nil {
		t.Fatalf("Register: %v", err)
	}
	run, err := h.eng.Run("w", nil, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if run.Status != workflow.RunCompleted {
		t.Fatalf("run status %q after retries, want completed", run.Status)
	}
	if got := h.counter("workflow_steps_retried_total"); got != 2 {
		t.Fatalf("steps_retried = %d, want 2", got)
	}
	if st := run.Steps(h.eng)[0]; st.Attempts != 3 {
		t.Fatalf("step attempts = %d, want 3", st.Attempts)
	}
}

func TestFanInWithDeadBranchAndReplay(t *testing.T) {
	h := newHarness(t, workflow.Options{Retry: faults.DefaultRetryPolicy()})
	broken := true
	h.inv.handle("split", func(in map[string]any) (any, error) { return "ok", nil })
	h.inv.handle("good", func(in map[string]any) (any, error) { return "ok", nil })
	h.inv.handle("bad", func(in map[string]any) (any, error) {
		if broken {
			// A permanent error: retries exhaust, the step dead-letters.
			return nil, fmt.Errorf("transient: %w", faults.ErrInjected)
		}
		return "fixed", nil
	})
	h.inv.handle("join", func(in map[string]any) (any, error) { return "joined", nil })
	spec := &workflow.Spec{Name: "frag", Steps: []workflow.Step{
		{ID: "split", Function: "split"},
		{ID: "good", Function: "good", After: []string{"split"}},
		{ID: "bad", Function: "bad", After: []string{"split"}},
		{ID: "join", Function: "join", After: []string{"good", "bad"}},
	}}
	if err := h.eng.Register(spec); err != nil {
		t.Fatalf("Register: %v", err)
	}
	run, err := h.eng.Run("frag", nil, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if run.Status != workflow.RunStalled {
		t.Fatalf("run status %q, want stalled (dead branch blocks the join)", run.Status)
	}
	states := map[string]string{}
	for _, st := range run.Steps(h.eng) {
		states[st.ID] = st.Status
	}
	if states["bad"] != workflow.StepDead || states["join"] != workflow.StepPending {
		t.Fatalf("states %v: want bad=dead, join=pending", states)
	}
	recs, err := h.eng.DLQ("frag")
	if err != nil || len(recs) != 1 {
		t.Fatalf("DLQ = %v, %v; want one record", recs, err)
	}
	if recs[0].Step != "bad" || recs[0].Attempts != 4 {
		t.Fatalf("DLQ record %+v", recs[0])
	}
	if got := h.reg.Gauge(metrics.Name("workflow_dlq_depth", "workflow", "frag")).Value(); got != 1 {
		t.Fatalf("dlq_depth = %d, want 1", got)
	}

	// Deploy the fix, replay the dead letters: the run resumes and the
	// blocked join completes.
	broken = false
	resumed, err := h.eng.ReplayDLQ("frag", 50*time.Millisecond)
	if err != nil {
		t.Fatalf("ReplayDLQ: %v", err)
	}
	if len(resumed) != 1 || resumed[0].ID != run.ID {
		t.Fatalf("resumed %v, want the stalled run", resumed)
	}
	if run.Status != workflow.RunCompleted {
		t.Fatalf("run status %q after replay, want completed", run.Status)
	}
	for _, st := range run.Steps(h.eng) {
		if st.Status != workflow.StepCompleted {
			t.Fatalf("step %s status %q after replay", st.ID, st.Status)
		}
	}
	if got := h.reg.Gauge(metrics.Name("workflow_dlq_depth", "workflow", "frag")).Value(); got != 0 {
		t.Fatalf("dlq_depth = %d after replay, want 0", got)
	}
	if got := h.counter("workflow_dlq_redelivered_total"); got != 1 {
		t.Fatalf("dlq_redelivered = %d, want 1", got)
	}
	// Replaying an empty DLQ is a no-op.
	if again, err := h.eng.ReplayDLQ("frag", time.Second); err != nil || len(again) != 0 {
		t.Fatalf("second replay = %v, %v; want empty", again, err)
	}
}

func TestDuplicateDeliveryIsCounted(t *testing.T) {
	h := newHarness(t, workflow.Options{})
	h.inv.handle("f", func(in map[string]any) (any, error) { return "ok", nil })
	spec := &workflow.Spec{Name: "dup", Steps: []workflow.Step{{ID: "a", Function: "f"}}}
	if err := h.eng.Register(spec); err != nil {
		t.Fatalf("Register: %v", err)
	}
	run, err := h.eng.Run("dup", nil, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Simulate an at-least-once redelivery: the broker replays the
	// first run's step message; the next drive loop must drop it as a
	// duplicate, not re-execute it.
	body, _ := json.Marshal(map[string]string{"run": run.ID, "step": "a"})
	if _, _, err := h.bus.ProduceTracedAt("wf-dup-steps", run.ID, body, time.Millisecond, nil); err != nil {
		t.Fatalf("produce duplicate: %v", err)
	}
	if _, err := h.eng.Run("dup", nil, 2*time.Millisecond); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if got := h.counter("workflow_duplicate_deliveries_total"); got != 1 {
		t.Fatalf("duplicate_deliveries = %d, want 1", got)
	}
	if got := h.counter("workflow_steps_started_total"); got != 2 {
		t.Fatalf("steps_started = %d, want 2 (duplicate must not re-execute)", got)
	}
}

// dlqScenario runs a fixed multi-run scenario under a seeded fault
// plane and returns the DLQ contents with the metrics dump, plus the
// full journal dump — the determinism witnesses.
func dlqScenario(t *testing.T, seed uint64) (string, []byte) {
	t.Helper()
	h := newHarness(t, workflow.Options{Retry: faults.DefaultRetryPolicy()})
	plane := faults.NewPlane(seed)
	plane.SetProfile(faults.SiteBusProduce, faults.Profile{ErrorRate: 0.2})
	plane.SetProfile(faults.SiteBusConsume, faults.Profile{ErrorRate: 0.2})
	h.bus.AttachFaults(plane)
	h.inv.handle("work", func(in map[string]any) (any, error) { return "ok", nil })
	poisoned := 0
	h.inv.handle("poison", func(in map[string]any) (any, error) {
		poisoned++
		return nil, fmt.Errorf("poison pill %d: %w", poisoned, faults.ErrInjected)
	})
	spec := &workflow.Spec{Name: "storm", Steps: []workflow.Step{
		{ID: "a", Function: "work"},
		{ID: "b", Function: "poison", After: []string{"a"}},
		{ID: "c", Function: "work", After: []string{"a"}},
	}}
	if err := h.eng.Register(spec); err != nil {
		t.Fatalf("Register: %v", err)
	}
	for i := 0; i < 6; i++ {
		// Under a 20% bus fault rate an enqueue can exhaust its retries
		// and stall the run — that is part of the deterministic
		// schedule, not a test failure.
		h.eng.Run("storm", map[string]any{"i": i}, time.Duration(i)*10*time.Millisecond)
	}
	recs, err := h.eng.DLQ("storm")
	if err != nil {
		t.Fatalf("DLQ: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("fault storm produced no dead letters")
	}
	dump, _ := json.Marshal(recs)
	var text strings.Builder
	if err := h.reg.WriteFormat(&text, "text"); err != nil {
		t.Fatalf("WriteFormat: %v", err)
	}
	var nd bytes.Buffer
	if err := events.WriteNDJSON(&nd, h.journal.Events()); err != nil {
		t.Fatalf("WriteNDJSON: %v", err)
	}
	return string(dump) + "\n" + text.String(), nd.Bytes()
}

func TestDLQRedeliveryDeterminism(t *testing.T) {
	d1, n1 := dlqScenario(t, 42)
	d2, n2 := dlqScenario(t, 42)
	if d1 != d2 {
		t.Fatalf("same seed produced different DLQ contents or metrics:\n%s\nvs\n%s", d1, d2)
	}
	if !bytes.Equal(n1, n2) {
		t.Fatal("same seed produced different event journals")
	}
	// The seed drives the bus fault schedule: a different seed must
	// yield a different retry/fault event history. (DLQ *contents* can
	// legitimately coincide — the poison step fails identically — so
	// the journal is the cross-seed witness.)
	_, n3 := dlqScenario(t, 43)
	if bytes.Equal(n1, n3) {
		t.Fatal("different seeds produced identical event journals (suspicious)")
	}
}

func TestRunErrors(t *testing.T) {
	h := newHarness(t, workflow.Options{})
	if _, err := h.eng.Run("ghost", nil, 0); err == nil {
		t.Fatal("running an unregistered workflow succeeded")
	}
	if _, err := h.eng.DLQ("ghost"); err == nil {
		t.Fatal("DLQ of an unregistered workflow succeeded")
	}
	if _, err := h.eng.ReplayDLQ("ghost", 0); err == nil {
		t.Fatal("replay of an unregistered workflow succeeded")
	}
	spec := &workflow.Spec{Name: "w", Steps: []workflow.Step{{ID: "a", Function: "f"}}}
	if err := h.eng.Register(spec); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := h.eng.Register(spec); err == nil {
		t.Fatal("double registration succeeded")
	}
	// Unknown function: fail-fast policy dead-letters the step.
	run, err := h.eng.Run("w", nil, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if run.Status != workflow.RunStalled {
		t.Fatalf("run status %q, want stalled", run.Status)
	}
	if errors.Is(err, nil) && h.counter("workflow_steps_dead_total") != 1 {
		t.Fatal("unknown function did not dead-letter")
	}
}

func TestDoneEventCarriesStepCounts(t *testing.T) {
	h := newHarness(t, workflow.Options{})
	h.inv.handle("head", func(in map[string]any) (any, error) {
		return map[string]any{"go": "no"}, nil
	})
	h.inv.handle("gated", func(in map[string]any) (any, error) { return "ran", nil })
	spec := &workflow.Spec{Name: "counted", Steps: []workflow.Step{
		{ID: "head", Function: "head"},
		{ID: "gated", Function: "gated", After: []string{"head"},
			When: &workflow.Condition{Step: "head", Key: "go", Equals: "yes"}},
	}}
	if err := h.eng.Register(spec); err != nil {
		t.Fatalf("Register: %v", err)
	}
	run, err := h.eng.Run("counted", nil, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	// The run's trace must end with a terminal workflow:done instant
	// carrying the per-run step counts, so consumers (the insight
	// engine, DAG dashboards) can close the run without scanning for
	// the last step event.
	var done *events.Event
	for _, ev := range h.journal.Trace(run.TraceID()) {
		if ev.Kind == events.KindInstant && ev.Component == "workflow" && ev.Name == "done" {
			ev := ev
			done = &ev
		}
	}
	if done == nil {
		t.Fatal("no workflow:done instant in the run trace")
	}
	attrs := map[string]string{}
	for _, a := range done.Attrs {
		attrs[a.Key] = a.Value
	}
	want := map[string]string{
		"status":          string(workflow.RunCompleted),
		"steps_total":     "2",
		"steps_completed": "1",
		"steps_skipped":   "1",
		"steps_dead":      "0",
		"steps_pending":   "0",
	}
	for k, v := range want {
		if attrs[k] != v {
			t.Errorf("done attr %s = %q, want %q (attrs: %v)", k, attrs[k], v, attrs)
		}
	}
	if attrs["run"] != run.ID {
		t.Errorf("done attr run = %q, want %q", attrs["run"], run.ID)
	}
	// It must be the trace's final event.
	trace := h.journal.Trace(run.TraceID())
	last := trace[len(trace)-1]
	if !(last.Kind == events.KindInstant && last.Name == "done") &&
		!(last.Kind == events.KindEnd) {
		t.Errorf("trace ends with %v %s:%s, want the done instant (or the root close)", last.Kind, last.Component, last.Name)
	}
}

// TestCompletedRunsAreBounded pins the engine's retention rule: a
// completed run is forgotten once enough newer ones have completed, a
// stalled run never is, and a late duplicate for a forgotten run is
// dropped without executing anything.
func TestCompletedRunsAreBounded(t *testing.T) {
	h := newHarness(t, workflow.Options{})
	broken := true
	h.inv.handle("f", func(in map[string]any) (any, error) {
		if broken {
			return nil, fmt.Errorf("transient: %w", faults.ErrInjected)
		}
		return "ok", nil
	})
	spec := &workflow.Spec{Name: "keep", Steps: []workflow.Step{
		{ID: "a", Function: "f"},
		{ID: "b", Function: "f", After: []string{"a"}},
	}}
	if err := h.eng.Register(spec); err != nil {
		t.Fatalf("Register: %v", err)
	}
	stalled, err := h.eng.Run("keep", nil, 0)
	if err != nil || stalled.Status != workflow.RunStalled {
		t.Fatalf("first run = %v, %v; want stalled", stalled.Status, err)
	}
	broken = false
	var first *workflow.Run
	for i := 1; i <= 5000; i++ {
		run, err := h.eng.Run("keep", nil, time.Duration(i)*time.Millisecond)
		if err != nil || run.Status != workflow.RunCompleted {
			t.Fatalf("run %d = %v, %v; want completed", i, run.Status, err)
		}
		if first == nil {
			first = run
		}
	}
	if n, ok := workflow.Retained(h.eng, stalled.ID); n > 300 || !ok {
		t.Fatalf("engine holds %d runs after 5000 completed (stalled run kept: %v), want a bounded few hundred with the stalled one", n, ok)
	}
	if _, ok := workflow.Retained(h.eng, first.ID); ok {
		t.Fatalf("first completed run %s still retained", first.ID)
	}

	// A late duplicate of a forgotten run's step is consumed and skipped.
	started := h.counter("workflow_steps_started_total")
	body, _ := json.Marshal(map[string]string{"run": first.ID, "step": "a"})
	if _, _, err := h.bus.ProduceTracedAt("wf-keep-steps", first.ID, body, 6*time.Second, nil); err != nil {
		t.Fatalf("produce duplicate: %v", err)
	}

	// The stalled run, older than every forgotten one, still replays.
	resumed, err := h.eng.ReplayDLQ("keep", 7*time.Second)
	if err != nil || len(resumed) != 1 || resumed[0] != stalled {
		t.Fatalf("ReplayDLQ = %v, %v; want the stalled run", resumed, err)
	}
	if stalled.Status != workflow.RunCompleted {
		t.Fatalf("stalled run status %q after replay, want completed", stalled.Status)
	}
	if got := h.counter("workflow_steps_started_total") - started; got != 2 {
		t.Fatalf("replay started %d steps, want 2 (the forgotten run's duplicate must not execute)", got)
	}
}
