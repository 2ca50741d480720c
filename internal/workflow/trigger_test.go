package workflow_test

import (
	"testing"
	"time"

	"repro/internal/couchdb"
	"repro/internal/workflow"
)

func TestChangeFeedTrigger(t *testing.T) {
	h := newHarness(t, workflow.Options{})
	var analyzed []map[string]any
	h.inv.handle("analyze", func(in map[string]any) (any, error) {
		analyzed = append(analyzed, in)
		return "done", nil
	})
	spec := &workflow.Spec{Name: "analysis", Steps: []workflow.Step{{ID: "a", Function: "analyze"}}}
	if err := h.eng.Register(spec); err != nil {
		t.Fatalf("Register: %v", err)
	}
	couch := couchdb.NewServer()
	db := couch.CreateDB("wages")
	h.eng.AddChangeFeed(db, "analysis",
		func(c couchdb.Change) bool { return !c.Deleted },
		nil)

	if _, err := db.Put(couchdb.Document{"_id": "wage-1", "base": int64(100)}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := db.Put(couchdb.Document{"_id": "wage-2", "base": int64(200)}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if len(analyzed) != 0 {
		t.Fatal("change feed ran the workflow synchronously inside Put")
	}

	runs := h.eng.Drain(40 * time.Millisecond)
	if len(runs) != 2 {
		t.Fatalf("Drain produced %d runs, want 2", len(runs))
	}
	for i, run := range runs {
		if run.Status != workflow.RunCompleted {
			t.Fatalf("triggered run %d status %q", i, run.Status)
		}
		if trace := h.journal.Trace(run.TraceID()); len(trace) == 0 || trace[0].TS != 40*time.Millisecond {
			t.Fatalf("triggered run %d starts its trace at %v", i, trace)
		}
	}
	// Default input carries the change metadata.
	if analyzed[0]["id"] != "wage-1" || analyzed[1]["id"] != "wage-2" {
		t.Fatalf("trigger inputs %v", analyzed)
	}
	if left := h.eng.Drain(45 * time.Millisecond); len(left) != 0 {
		t.Fatalf("Drain left %d pending triggers", len(left))
	}
	if got := h.counter(`workflow_triggers_fired_total{source="changefeed"}`); got != 2 {
		t.Fatalf("changefeed triggers fired = %d, want 2", got)
	}

	// The filter drops deletions.
	doc, _ := db.Get("wage-1")
	if err := db.Delete("wage-1", doc.Rev()); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if got := h.eng.Drain(45 * time.Millisecond); len(got) != 0 {
		t.Fatalf("deletion queued %d firings despite the filter", len(got))
	}

	// Custom input functions shape the run input.
	h.eng.AddChangeFeed(db, "analysis",
		func(c couchdb.Change) bool { return c.ID == "wage-9" },
		func(c couchdb.Change) map[string]any {
			return map[string]any{"trigger": "db-change", "doc": c.ID}
		})
	if _, err := db.Put(couchdb.Document{"_id": "wage-9", "base": int64(1)}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	runs = h.eng.Drain(50 * time.Millisecond)
	// The first (unfiltered) subscription also fires for wage-9.
	if len(runs) != 2 {
		t.Fatalf("Drain produced %d runs, want 2", len(runs))
	}
	last := analyzed[len(analyzed)-1]
	if last["trigger"] != "db-change" && analyzed[len(analyzed)-2]["trigger"] != "db-change" {
		t.Fatalf("custom input missing: %v", analyzed)
	}
}
