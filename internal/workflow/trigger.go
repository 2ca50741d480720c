package workflow

import (
	"time"

	"repro/internal/couchdb"
	"repro/internal/metrics"
)

// SourceChangeFeed is the trigger source label (the
// workflow_triggers_fired_total label value) of change-feed firings.
const SourceChangeFeed = "changefeed"

// firing is one pending trigger activation awaiting Drain.
type firing struct {
	workflow string
	input    map[string]any
}

// AddChangeFeed subscribes a workflow to a CouchDB database's change
// feed. Each change passing `filter` (nil = all changes) queues one
// firing with `input(change)` as run input (nil input builds
// {"id", "seq", "deleted"} from the change). Queued firings run on the
// next Drain — change callbacks fire synchronously inside database
// writes, possibly mid-step, so activation is deferred rather than
// reentrant.
func (e *Engine) AddChangeFeed(db *couchdb.Database, workflow string, filter func(couchdb.Change) bool, input func(couchdb.Change) map[string]any) {
	db.Subscribe(func(ch couchdb.Change) {
		if filter != nil && !filter(ch) {
			return
		}
		var in map[string]any
		if input != nil {
			in = input(ch)
		} else {
			in = map[string]any{
				"id":      ch.ID,
				"seq":     int64(ch.Seq),
				"deleted": ch.Deleted,
			}
		}
		e.pendingMu.Lock()
		e.pending = append(e.pending, firing{workflow: workflow, input: in})
		e.pendingMu.Unlock()
	})
}

// Drain runs every queued change-feed firing at virtual time `at`,
// looping until the queue is empty (a triggered run may itself write
// to a watched database and queue more firings). Returns the finished
// runs in firing order.
func (e *Engine) Drain(at time.Duration) []*Run {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []*Run
	for {
		e.pendingMu.Lock()
		batch := e.pending
		e.pending = nil
		e.pendingMu.Unlock()
		if len(batch) == 0 {
			return out
		}
		for _, f := range batch {
			// Registered on the first firing, so an engine without
			// change feeds exports no trigger series.
			if e.triggers == nil {
				e.triggers = e.reg.Counter(metrics.Name("workflow_triggers_fired_total", "source", SourceChangeFeed))
			}
			e.triggers.Inc()
			run, err := e.runLocked(f.workflow, f.input, at)
			if err == nil {
				out = append(out, run)
			}
		}
	}
}
