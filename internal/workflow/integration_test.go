package workflow_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/couchdb"
	"repro/internal/platform"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// installAlexa deploys the Alexa suite plus the workflow step
// functions on a platform (leaves before chain heads, as priming
// exercises the real chain).
func installAlexa(t *testing.T, p platform.Platform) {
	t.Helper()
	apps := append(workloads.AlexaSkills(), workloads.WorkflowFunctions()...)
	for i := len(apps) - 1; i >= 0; i-- {
		if _, err := p.Install(apps[i].Function); err != nil {
			t.Fatalf("install %s: %v", apps[i].Name, err)
		}
	}
}

// TestDeclarativeAlexaOnCore runs the declarative Alexa workflow on
// the real Fireworks stack and asserts the acceptance criterion: the
// whole run — workflow span, step spans, and the platform's invoke
// pipeline stages — lands in ONE journal trace.
func TestDeclarativeAlexaOnCore(t *testing.T) {
	env := platform.NewEnv(platform.EnvConfig{})
	fw := core.New(env, core.Options{})
	installAlexa(t, fw)

	eng := workflow.New(env.Bus, env.Events, env.Metrics, fw, workflow.Options{})
	if err := eng.Register(workloads.AlexaWorkflow()); err != nil {
		t.Fatalf("Register: %v", err)
	}

	// Journal position before the run: everything after belongs to it.
	before := len(env.Events.Events())

	run, err := eng.Run("alexa",
		map[string]any{"text": "remind me to water the plants", "action": "add", "id": "w1",
			"item": "water plants", "place": "balcony", "url": "https://cal.example/w1"},
		10*time.Millisecond)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if run.Status != workflow.RunCompleted {
		t.Fatalf("run status %q, want completed", run.Status)
	}
	states := map[string]string{}
	for _, st := range run.Steps(eng) {
		states[st.ID] = st.Status
	}
	if states["intent"] != workflow.StepCompleted || states["reminder"] != workflow.StepCompleted {
		t.Fatalf("states %v: want intent and reminder completed", states)
	}
	if states["fact"] != workflow.StepSkipped || states["smarthome"] != workflow.StepSkipped {
		t.Fatalf("states %v: want fact and smarthome skipped (conditional branch)", states)
	}

	// Single end-to-end trace: every event the run emitted — from the
	// workflow layer down through msgbus and the core invoke pipeline —
	// carries the run's trace ID.
	evs := env.Events.Events()[before:]
	if len(evs) == 0 {
		t.Fatal("run emitted no events")
	}
	seen := map[string]bool{}
	for _, e := range evs {
		if e.Trace != run.TraceID() {
			t.Fatalf("event %s/%s (seq %d) has trace %v, want the run trace %v",
				e.Component, e.Name, e.Seq, e.Trace, run.TraceID())
		}
		seen[e.Component+"/"+e.Name] = true
	}
	for _, want := range []string{
		"workflow/step",         // engine step span
		"msgbus/produce-batch",  // step enqueue
		"msgbus/consume-batch",  // traced step poll
		"core/invoke",           // platform pipeline root
		"core/restore-or-reuse", // pipeline stage
		"core/execute",          // pipeline stage
		"workflow/step-skipped", // pruned branches
	} {
		if !seen[want] {
			t.Fatalf("run trace is missing %s (have %v)", want, seen)
		}
	}
	// And the reminder actually hit the database.
	db, err := env.Couch.DB("reminders")
	if err != nil {
		t.Fatalf("reminders DB: %v", err)
	}
	if _, err := db.Get("reminder-w1"); err != nil {
		t.Fatalf("reminder document not stored: %v", err)
	}
}

// TestDeclarativeWageChainsOnCore runs the declarative ingestion chain
// and the change-feed-triggered analysis chain end to end on core.
func TestDeclarativeWageChainsOnCore(t *testing.T) {
	env := platform.NewEnv(platform.EnvConfig{})
	fw := core.New(env, core.Options{})
	apps := append(workloads.DataAnalysis(), workloads.WorkflowFunctions()...)
	for i := len(apps) - 1; i >= 0; i-- {
		if _, err := fw.Install(apps[i].Function); err != nil {
			t.Fatalf("install %s: %v", apps[i].Name, err)
		}
	}

	eng := workflow.New(env.Bus, env.Events, env.Metrics, fw, workflow.Options{})
	if err := eng.Register(workloads.WageInsertWorkflow()); err != nil {
		t.Fatalf("Register ingest: %v", err)
	}
	if err := eng.Register(workloads.WageAnalysisWorkflow()); err != nil {
		t.Fatalf("Register analysis: %v", err)
	}
	// The dashed Figure 8(b) edge: every wage write triggers the
	// analysis chain.
	wages, err := env.Couch.DB("wages")
	if err != nil {
		t.Fatalf("wages DB: %v", err)
	}
	eng.AddChangeFeed(wages, "wage-analysis", nil,
		func(c couchdb.Change) map[string]any {
			return map[string]any{"trigger": "db-change", "doc": c.ID}
		})

	run, err := eng.Run("wage-ingest",
		map[string]any{"name": "ada", "id": "e1", "role": "Engineer", "base": int64(64000)},
		time.Millisecond)
	if err != nil {
		t.Fatalf("Run ingest: %v", err)
	}
	if run.Status != workflow.RunCompleted {
		t.Fatalf("ingest status %q, want completed", run.Status)
	}
	// The persist step's db_put queued an analysis firing.
	triggered := eng.Drain(run.Invocation.Clock.Now())
	if len(triggered) != 1 || triggered[0].Status != workflow.RunCompleted {
		t.Fatalf("triggered analysis runs: %v", triggered)
	}
	stats, err := env.Couch.DB("wage-stats")
	if err != nil {
		t.Fatalf("wage-stats DB: %v", err)
	}
	doc, err := stats.Get("stats-latest")
	if err != nil {
		t.Fatalf("stats document not stored: %v", err)
	}
	// Two wage documents: install-time priming upserts wage-p0, the
	// workflow inserted wage-e1.
	if doc["employees"] != int64(2) && doc["employees"] != float64(2) {
		t.Fatalf("stats employees = %v, want 2", doc["employees"])
	}
}
