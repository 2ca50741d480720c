package workflow

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/metrics"
	"repro/internal/msgbus"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/vclock"
)

// Invoker executes one deployed function. core.Framework, the
// OpenWhisk model, and any other platform.Platform satisfy it
// directly; cluster callers pass a cluster.Invoker.
type Invoker interface {
	Invoke(name string, params lang.Value, opts platform.InvokeOptions) (*platform.Invocation, error)
}

// Options tunes an Engine.
type Options struct {
	// Retry is every step's retry policy. The zero policy fails fast
	// on the first error.
	Retry faults.RetryPolicy
}

// stepBatch caps how many step messages one bus poll returns.
const stepBatch = 16

// Step delivery states. Completed, Skipped, and Dead are terminal;
// Dead steps come back to Pending only through ReplayDLQ.
const (
	StepPending   = "pending"
	StepCompleted = "completed"
	StepSkipped   = "skipped"
	StepDead      = "dead"
)

// Run outcomes.
const (
	// RunCompleted: every step reached completed or skipped.
	RunCompleted = "completed"
	// RunStalled: at least one step is dead (or blocked behind a dead
	// ancestor); ReplayDLQ can resume the run.
	RunStalled = "stalled"
)

// StepState is the delivery record of one step within one run. Its
// fields are in JSON key order, so the gateway's run reply encodes it
// as the sorted-key object it always sent.
type StepState struct {
	Attempts int    `json:"attempts"`
	Error    string `json:"error,omitempty"`
	Function string `json:"function"`
	ID       string `json:"id"`
	Status   string `json:"status"`

	enqueued bool
}

// Run is one execution of a workflow. All steps share the run's
// invocation (one virtual clock, one latency breakdown, one trace).
type Run struct {
	ID         string
	Workflow   string
	Status     string
	Input      map[string]any
	Invocation *platform.Invocation

	steps   map[string]*StepState
	results map[string]any
	done    bool
}

// TraceID returns the run's current journal trace (replayed runs get a
// fresh trace per resume).
func (r *Run) TraceID() events.TraceID { return r.Invocation.Clock.Scope().TraceID() }

// Result returns a completed step's recorded output. Read it after
// Run/Drain returns — the engine mutates results only while
// driving the run.
func (r *Run) Result(step string) (any, bool) {
	v, ok := r.results[step]
	return v, ok
}

// Steps returns the per-step states in the workflow's topological
// order.
func (r *Run) Steps(e *Engine) []*StepState {
	e.mu.Lock()
	defer e.mu.Unlock()
	wf := e.workflows[r.Workflow]
	if wf == nil {
		return nil
	}
	out := make([]*StepState, 0, len(wf.order))
	for _, id := range wf.order {
		out = append(out, r.steps[id])
	}
	return out
}

// DLQRecord is one dead-lettered step as stored on the workflow's
// dead-letter topic.
type DLQRecord struct {
	Run      string `json:"run"`
	Step     string `json:"step"`
	Function string `json:"function"`
	Attempts int    `json:"attempts"`
	Error    string `json:"error"`
	Offset   int64  `json:"offset"`
}

// stepMsg is the wire format of one step delivery on the steps topic.
type stepMsg struct {
	Run  string `json:"run"`
	Step string `json:"step"`
}

// registered is a workflow plus its engine-side delivery state.
type registered struct {
	spec       *Spec
	order      []string // topological
	stepsTopic string
	dlqTopic   string
	retriers   map[string]*faults.Retrier
	offset     int64 // committed consume position on stepsTopic
	dlqOffset  int64 // replay position on dlqTopic
	dlqDepth   *metrics.Gauge
	runs       *metrics.Counter
}

// Engine executes registered workflows over the message bus with
// at-least-once step delivery. All entry points (Register, Run, Drain,
// ReplayDLQ) serialize on one mutex: the simulation is
// deterministic, so there is exactly one delivery order per seed.
type Engine struct {
	bus     *msgbus.Broker
	journal *events.Journal
	reg     *metrics.Registry
	inv     Invoker
	opts    Options

	mu        sync.Mutex
	workflows map[string]*registered
	names     []string // registration order
	runs      map[string]*Run
	runSeq    int
	completed []string // IDs of retained completed runs, oldest first

	busRetrier *faults.Retrier

	stepsStarted   *metrics.Counter
	stepsCompleted *metrics.Counter
	stepsRetried   *metrics.Counter
	stepsDead      *metrics.Counter
	stepsSkipped   *metrics.Counter
	duplicates     *metrics.Counter
	dlqRedelivered *metrics.Counter
	runDuration    *metrics.Histogram

	// Trigger state. pendingMu is separate from mu because CouchDB
	// change subscriptions fire synchronously inside db_put — i.e.
	// mid-step, while mu is held by the drive loop.
	pendingMu sync.Mutex
	pending   []firing
	triggers  *metrics.Counter // workflow_triggers_fired_total{source="changefeed"}
}

// New builds a workflow engine on the given bus, journal, registry,
// and function invoker. Any of journal/reg may be nil (events and
// metrics are dropped); bus and inv must be set.
func New(bus *msgbus.Broker, journal *events.Journal, reg *metrics.Registry, inv Invoker, opts Options) *Engine {
	return &Engine{
		bus:            bus,
		journal:        journal,
		reg:            reg,
		inv:            inv,
		opts:           opts,
		workflows:      make(map[string]*registered),
		runs:           make(map[string]*Run),
		busRetrier:     faults.NewRetrier(opts.Retry, reg),
		stepsStarted:   reg.Counter(metrics.Name("workflow_steps_started_total")),
		stepsCompleted: reg.Counter(metrics.Name("workflow_steps_completed_total")),
		stepsRetried:   reg.Counter(metrics.Name("workflow_steps_retried_total")),
		stepsDead:      reg.Counter(metrics.Name("workflow_steps_dead_total")),
		stepsSkipped:   reg.Counter(metrics.Name("workflow_steps_skipped_total")),
		duplicates:     reg.Counter(metrics.Name("workflow_duplicate_deliveries_total")),
		dlqRedelivered: reg.Counter(metrics.Name("workflow_dlq_redelivered_total")),
		runDuration:    reg.Histogram("workflow_run_duration"),
	}
}

// Register validates the spec and provisions its delivery topics
// (wf-<name>-steps, wf-<name>-dlq) and per-step retriers.
func (e *Engine) Register(spec *Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.workflows[spec.Name]; dup {
		return fmt.Errorf("workflow %q: already registered", spec.Name)
	}
	wf := &registered{
		spec:       spec,
		stepsTopic: "wf-" + spec.Name + "-steps",
		dlqTopic:   "wf-" + spec.Name + "-dlq",
		retriers:   make(map[string]*faults.Retrier, len(spec.Steps)),
		dlqDepth:   e.reg.Gauge(metrics.Name("workflow_dlq_depth", "workflow", spec.Name)),
		runs:       e.reg.Counter(metrics.Name("workflow_runs_total", "workflow", spec.Name)),
	}
	wf.order, _ = spec.topoOrder()
	if err := e.bus.CreateTopic(wf.stepsTopic, 1); err != nil {
		return fmt.Errorf("workflow %q: %w", spec.Name, err)
	}
	if err := e.bus.CreateTopic(wf.dlqTopic, 1); err != nil {
		return fmt.Errorf("workflow %q: %w", spec.Name, err)
	}
	for i := range spec.Steps {
		wf.retriers[spec.Steps[i].ID] = faults.NewRetrier(e.opts.Retry, e.reg)
	}
	e.workflows[spec.Name] = wf
	e.names = append(e.names, spec.Name)
	return nil
}

// Workflows lists registered workflow names in registration order.
func (e *Engine) Workflows() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.names...)
}

// Spec returns a registered workflow's spec (nil if unknown).
func (e *Engine) Spec(name string) *Spec {
	e.mu.Lock()
	defer e.mu.Unlock()
	if wf := e.workflows[name]; wf != nil {
		return wf.spec
	}
	return nil
}

// Run executes one workflow to quiescence at virtual time `at` and
// returns the finished run (status RunCompleted or RunStalled).
func (e *Engine) Run(name string, input map[string]any, at time.Duration) (*Run, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.runLocked(name, input, at)
}

func (e *Engine) runLocked(name string, input map[string]any, at time.Duration) (*Run, error) {
	wf := e.workflows[name]
	if wf == nil {
		return nil, fmt.Errorf("workflow %q: not registered", name)
	}
	e.runSeq++
	runID := fmt.Sprintf("r%06d", e.runSeq)
	inv := platform.NewInvocationAt("workflow:"+name, at)
	sc := e.journal.NewScope("workflow", "run", at,
		events.A("workflow", name), events.A("run", runID))
	inv.Clock.Observe(e.reg, sc)
	run := &Run{
		ID:         runID,
		Workflow:   name,
		Input:      input,
		Invocation: inv,
		steps:      make(map[string]*StepState, len(wf.spec.Steps)),
		results:    make(map[string]any, len(wf.spec.Steps)),
	}
	for i := range wf.spec.Steps {
		st := &wf.spec.Steps[i]
		run.steps[st.ID] = &StepState{ID: st.ID, Function: st.Function, Status: StepPending}
	}
	e.runs[runID] = run
	wf.runs.Inc()
	if err := e.enqueueReady(wf, run); err != nil {
		run.Status = RunStalled
		sc.Close(inv.Clock.Now(), events.A("status", RunStalled), events.A("error", err.Error()))
		run.done = true
		return run, err
	}
	e.drive(wf)
	e.finalize(wf, run)
	return run, nil
}

// enqueueReady produces a step-delivery message for every pending step
// whose dependencies are all terminal-OK (completed or skipped) and
// that has not been enqueued yet.
func (e *Engine) enqueueReady(wf *registered, run *Run) error {
	var recs []msgbus.BatchRecord
	for _, id := range wf.order {
		st := run.steps[id]
		if st.enqueued || st.Status != StepPending {
			continue
		}
		if !e.ready(wf, run, id) {
			continue
		}
		body, _ := json.Marshal(stepMsg{Run: run.ID, Step: id})
		recs = append(recs, msgbus.BatchRecord{Key: run.ID, Value: body})
		st.enqueued = true
	}
	if len(recs) == 0 {
		return nil
	}
	clock := run.Invocation.Clock
	return e.busRetrier.DoWithDiscard(clock, "wf-enqueue", func() error {
		_, err := e.bus.ProduceBatchTracedAt(wf.stepsTopic, recs, clock.Now(), clock.Scope())
		return err
	}, nil)
}

// ready reports whether every dependency of step id is terminal-OK.
func (e *Engine) ready(wf *registered, run *Run, id string) bool {
	st := wf.spec.step(id)
	for _, dep := range st.After {
		switch run.steps[dep].Status {
		case StepCompleted, StepSkipped:
		default:
			return false
		}
	}
	return true
}

// drive is the step-delivery loop: poll the workflow's steps topic
// through the traced batch-consume path, execute each delivered step,
// and keep polling until a read comes back empty (quiescence). The
// committed offset advances one message at a time — a mid-batch crash
// model would redeliver the tail, which is exactly the at-least-once
// contract the duplicate counter guards.
func (e *Engine) drive(wf *registered) {
	for {
		var msgs []msgbus.Message
		// Poll under the scope of the run that produced the head
		// message where possible; fall back to a journal-less poll
		// position when the topic is empty.
		clock := e.pollContext(wf)
		err := e.busRetrier.DoWithDiscard(clock, "wf-poll", func() error {
			var cerr error
			msgs, cerr = e.bus.ConsumeFromTracedAt(wf.stepsTopic, 0, wf.offset, stepBatch, clock.Now(), clock.Scope())
			return cerr
		}, nil)
		if err != nil || len(msgs) == 0 {
			return
		}
		for _, m := range msgs {
			wf.offset = m.Offset + 1
			var sm stepMsg
			if json.Unmarshal(m.Value, &sm) != nil {
				continue
			}
			run := e.runs[sm.Run]
			if run == nil {
				continue
			}
			e.deliver(wf, run, sm.Step)
		}
	}
}

// pollContext picks the clock a poll is charged to: the run that
// produced the next undelivered message, so consume-batch events land
// in the trace of the work they deliver; else a traceless one.
func (e *Engine) pollContext(wf *registered) *vclock.Clock {
	m, err := e.bus.ConsumeAt(wf.stepsTopic, 0, wf.offset)
	if err == nil {
		var sm stepMsg
		if json.Unmarshal(m.Value, &sm) == nil {
			if run := e.runs[sm.Run]; run != nil {
				return run.Invocation.Clock
			}
		}
	}
	clock := vclock.New()
	clock.Observe(e.reg, nil)
	return clock
}

// deliver executes one delivered step to a terminal state and enqueues
// any dependents it unblocks.
func (e *Engine) deliver(wf *registered, run *Run, stepID string) {
	st := run.steps[stepID]
	spec := wf.spec.step(stepID)
	if st == nil || spec == nil {
		return
	}
	if st.Status != StepPending {
		// Redelivery of an already-terminal step: the at-least-once
		// contract in action. Count it and drop it.
		e.duplicates.Inc()
		return
	}
	clock := run.Invocation.Clock
	now := clock.Now()

	// Branch pruning: a When condition that does not hold — or a step
	// whose every dependency was itself skipped — skips without
	// invoking anything. Skipped is terminal-OK so fan-in joins after
	// a pruned branch still fire.
	skip := false
	if len(spec.After) > 0 {
		allSkipped := true
		for _, dep := range spec.After {
			if run.steps[dep].Status != StepSkipped {
				allSkipped = false
			}
		}
		skip = allSkipped
	}
	if !skip && spec.When != nil && !spec.When.holds(run.results) {
		skip = true
	}
	if skip {
		st.Status = StepSkipped
		e.stepsSkipped.Inc()
		clock.Scope().Instant("workflow", "step-skipped", now,
			events.A("step", stepID), events.A("run", run.ID))
		e.enqueueReady(wf, run)
		return
	}

	params, perr := e.stepParams(spec, run)
	if perr != nil {
		e.deadLetter(wf, run, st, perr)
		return
	}

	e.stepsStarted.Inc()
	clock.Scope().Begin("workflow", "step", now,
		events.A("step", stepID),
		events.A("function", spec.Function),
		events.A("run", run.ID))
	attempts := 0
	var out *platform.Invocation
	err := wf.retriers[stepID].DoWithDiscard(clock, "step:"+stepID, func() error {
		attempts++
		var ierr error
		out, ierr = e.inv.Invoke(spec.Function, params, platform.InvokeOptions{
			Parent: run.Invocation,
			At:     clock.Now(),
		})
		return ierr
	}, nil)
	st.Attempts += attempts
	if attempts > 1 {
		e.stepsRetried.Add(int64(attempts - 1))
	}
	if err != nil {
		clock.Scope().End(clock.Now(), events.A("status", "failed"), events.A("error", err.Error()))
		e.deadLetter(wf, run, st, err)
		return
	}
	if res, cerr := runtime.ToGo(out.Result); cerr == nil {
		run.results[stepID] = res
	}
	st.Status = StepCompleted
	st.Error = ""
	e.stepsCompleted.Inc()
	clock.Scope().End(clock.Now(), events.A("status", StepCompleted))
	e.enqueueReady(wf, run)
}

// stepParams resolves a step's input mapping into function parameters.
func (e *Engine) stepParams(spec *Step, run *Run) (lang.Value, error) {
	in, err := resolveInput(spec, run.Input, run.results)
	if err != nil {
		return nil, err
	}
	return platform.ParamsValue(in)
}

// deadLetter routes a permanently failed step to the workflow's
// dead-letter topic.
func (e *Engine) deadLetter(wf *registered, run *Run, st *StepState, cause error) {
	clock := run.Invocation.Clock
	st.Status = StepDead
	st.Error = cause.Error()
	rec := DLQRecord{
		Run:      run.ID,
		Step:     st.ID,
		Function: st.Function,
		Attempts: st.Attempts,
		Error:    cause.Error(),
	}
	body, _ := json.Marshal(rec)
	perr := e.busRetrier.DoWithDiscard(clock, "wf-dlq", func() error {
		_, _, err := e.bus.ProduceTracedAt(wf.dlqTopic, run.ID, body, clock.Now(), clock.Scope())
		return err
	}, nil)
	e.stepsDead.Inc()
	wf.dlqDepth.Add(1)
	attrs := []events.Attr{
		events.A("step", st.ID),
		events.A("run", run.ID),
		events.A("error", cause.Error()),
	}
	if perr != nil {
		attrs = append(attrs, events.A("dlq_error", perr.Error()))
	}
	clock.Scope().Instant("workflow", "step-dead", clock.Now(), attrs...)
}

// finalize closes a run once the delivery loop has gone quiet: every
// step either reached a terminal state or is blocked behind a dead
// ancestor.
func (e *Engine) finalize(wf *registered, run *Run) {
	if run.done {
		return
	}
	status := RunCompleted
	var completed, skipped, dead, pending int
	for _, id := range wf.order {
		switch run.steps[id].Status {
		case StepCompleted:
			completed++
		case StepSkipped:
			skipped++
		case StepDead:
			dead++
			status = RunStalled
		default:
			pending++
			status = RunStalled
		}
	}
	run.Status = status
	run.done = true
	now, sc := run.Invocation.Clock.Now(), run.Invocation.Clock.Scope()
	e.runDuration.ObserveDurationExemplar(run.Invocation.Breakdown.Total(),
		uint64(sc.TraceID()), now)
	// The terminal workflow:done event carries the per-run step tally,
	// so a DAG critical path closes on one event instead of scanning
	// for the last step.
	sc.Instant("workflow", "done", now,
		events.A("run", run.ID),
		events.A("status", status),
		events.A("steps_total", strconv.Itoa(len(wf.order))),
		events.A("steps_completed", strconv.Itoa(completed)),
		events.A("steps_skipped", strconv.Itoa(skipped)),
		events.A("steps_dead", strconv.Itoa(dead)),
		events.A("steps_pending", strconv.Itoa(pending)))
	sc.Close(now, events.A("status", status))
	if status == RunCompleted {
		e.retire(run.ID)
	}
}

// retainCompleted is how many completed runs the engine keeps. Once Run
// has returned, nothing reads a completed run again except the
// late-duplicate check in deliver, and a duplicate for a forgotten run
// is skipped by drive like any unknown run ID. Stalled runs are never
// forgotten: ReplayDLQ resumes them.
const retainCompleted = 256

// retire records a run as completed and forgets the oldest completed
// runs beyond retainCompleted, with their invocation, charge log and
// step outputs.
func (e *Engine) retire(id string) {
	e.completed = append(e.completed, id)
	if len(e.completed) > retainCompleted {
		delete(e.runs, e.completed[0])
		e.completed = e.completed[1:]
	}
}

// DLQ lists every record currently parked on the workflow's
// dead-letter topic that has not been redelivered yet.
func (e *Engine) DLQ(name string) ([]DLQRecord, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	wf := e.workflows[name]
	if wf == nil {
		return nil, fmt.Errorf("workflow %q: not registered", name)
	}
	return e.dlqRecords(wf)
}

func (e *Engine) dlqRecords(wf *registered) ([]DLQRecord, error) {
	var out []DLQRecord
	off := wf.dlqOffset
	for {
		msgs, err := e.bus.ConsumeFrom(wf.dlqTopic, 0, off, 64)
		if err != nil {
			return nil, err
		}
		if len(msgs) == 0 {
			return out, nil
		}
		for _, m := range msgs {
			var rec DLQRecord
			if json.Unmarshal(m.Value, &rec) == nil {
				rec.Offset = m.Offset
				out = append(out, rec)
			}
			off = m.Offset + 1
		}
	}
}

// ReplayDLQ redelivers every parked dead-letter record at virtual time
// `at`: each dead step is reset to pending, re-enqueued on the steps
// topic, and its run driven back toward completion under a fresh
// dlq-replay trace. Returns the affected runs in replay order.
func (e *Engine) ReplayDLQ(name string, at time.Duration) ([]*Run, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	wf := e.workflows[name]
	if wf == nil {
		return nil, fmt.Errorf("workflow %q: not registered", name)
	}
	recs, err := e.dlqRecords(wf)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, nil
	}
	var out []*Run
	seen := make(map[string]bool)
	for _, rec := range recs {
		run := e.runs[rec.Run]
		if run == nil {
			continue
		}
		st := run.steps[rec.Step]
		if st == nil || st.Status != StepDead {
			continue
		}
		if !seen[run.ID] {
			seen[run.ID] = true
			out = append(out, run)
			// Resume the run on a fresh trace rooted at the replay:
			// the original trace closed when the run stalled. The
			// wait for the replay is booked outside both.
			clock := run.Invocation.Clock
			clock.WaitUntil("dlq-replay", at)
			clock.Observe(e.reg, e.journal.NewScope("workflow", "dlq-replay", clock.Now(),
				events.A("workflow", name), events.A("run", run.ID)))
			run.done = false
		}
		st.Status = StepPending
		st.Error = ""
		st.enqueued = false
	}
	redelivered := int64(len(recs))
	wf.dlqOffset += redelivered
	wf.dlqDepth.Add(-redelivered)
	e.dlqRedelivered.Add(redelivered)
	for _, run := range out {
		if err := e.enqueueReady(wf, run); err != nil {
			return out, err
		}
	}
	e.drive(wf)
	for _, run := range out {
		e.finalize(wf, run)
	}
	return out, nil
}
