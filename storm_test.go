package repro_test

import (
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/couchdb"
	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/insight"
	"repro/internal/lang"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/telemetry"
	"repro/internal/timeseries"
	"repro/internal/vclock"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// The seeded storm: stormInvocations requests alternating faas-fact and
// faas-matrix-mult on a stormNodes-node Fireworks cluster whose data
// path faults at stormRate. The fault plane, retry jitter and workload
// all run on the virtual clock, so a seed reproduces a run byte for
// byte, and the checks below cross the packages a request touches:
// core, cluster, faults, msgbus, events, timeseries, telemetry and
// insight.
const (
	stormSeed        = 22
	stormRate        = 0.01
	stormNodes       = 3
	stormInvocations = 300
	// stormJournalCap is large enough that no arm ever evicts, so the
	// sampled arm's byte reduction comes from sampling alone.
	stormJournalCap = 1 << 17
)

// stormArm is what distinguishes one run of the storm from another.
// resilient turns on stage retries and controller failover (off, the
// same faults meet the paper's fail-fast baseline); journalCap sizes
// the event journal (0: the default ring); sampled arms the tail-based
// trace sampler.
type stormArm struct {
	resilient, sampled bool
	journalCap         int
}

// storm is one finished run of the seeded storm and the alerts its SLO
// watchdog fired.
type storm struct {
	c                   *cluster.Cluster
	successes, failures int
	injected            int64
	alerts              []timeseries.Alert
}

func (s *storm) successRate() float64 {
	return float64(s.successes) / float64(s.successes+s.failures)
}

// stormBudget sizes each node's snapshot store to hold the shared base
// image plus one of the two function deltas, so alternating functions
// keep evicting each other and the storm exercises remote fetches.
func stormBudget(t *testing.T) uint64 {
	t.Helper()
	env := platform.NewEnv(platform.EnvConfig{})
	fw := core.New(env, core.Options{})
	for _, w := range []workloads.Workload{workloads.Fact(runtime.LangNode), workloads.MatrixMult(runtime.LangNode)} {
		if _, err := fw.Install(w.Function); err != nil {
			t.Fatal(err)
		}
	}
	return env.Snaps.UsedBytes() - 1
}

// runStorm replays the seeded storm against one arm, with the SLO
// watchdog sampling the invoke success rate after every request.
func runStorm(t *testing.T, budget uint64, arm stormArm) *storm {
	t.Helper()
	plane := faults.NewPlane(stormSeed)
	env := platform.EnvConfig{SnapshotDiskBudget: budget, RemoteSnapshotStorage: true, Faults: plane}
	if arm.journalCap > 0 {
		env.Events = events.NewJournal(arm.journalCap)
	}
	retry, failover := faults.RetryPolicy{}, cluster.FailoverPolicy{}
	if arm.resilient {
		retry, failover.MaxFailovers = faults.DefaultRetryPolicy(), 2
	}
	c := cluster.New(stormNodes, cluster.LeastInflight, env, func(env *platform.Env) platform.Platform {
		return core.New(env, core.Options{Retry: retry})
	})
	c.SetFailover(failover)

	// Install fault-free: the storm targets the data path, not the
	// one-time deploy.
	ws := [2]workloads.Workload{workloads.Fact(runtime.LangNode), workloads.MatrixMult(runtime.LangNode)}
	for _, w := range ws {
		if err := c.Install(w.Function); err != nil {
			t.Fatal(err)
		}
	}
	var tail *telemetry.TailSampler
	if arm.sampled {
		tail = telemetry.New(telemetry.Config{Seed: 7, KeepRate: 0.05})
		tail.Attach(c.Journal(), c.Metrics())
	}
	plane.ApplyDefaultPlan(stormRate)

	st := &storm{c: c}
	sampler := timeseries.NewSampler(c.Metrics(), timeseries.DefaultCapacity)
	sampler.AddProbe("storm_requests_total", func() float64 { return float64(st.successes + st.failures) })
	sampler.AddProbe("storm_failures_total", func() float64 { return float64(st.failures) })
	wd := timeseries.NewWatchdog(sampler, c.Journal(), c.Metrics())
	wd.AddRule(timeseries.Rule{Name: "invoke-success-rate", Op: timeseries.AtLeast, Threshold: 0.99,
		Ratio: &timeseries.RatioSource{Num: "storm_failures_total", Den: "storm_requests_total", Complement: true, MinDen: 50}})
	timeline := vclock.New()
	sampler.Sample(0)

	params := [2]lang.Value{platform.MustParams(map[string]any{"n": 101, "rounds": 2}), platform.MustParams(map[string]any{"n": 4})}
	for i := 0; i < stormInvocations; i++ {
		inv, _, err := c.Invoke(ws[i%2].Name, params[i%2], platform.InvokeOptions{})
		step := time.Microsecond // failures still move the timeline
		if err != nil {
			st.failures++
		} else {
			st.successes++
			step = inv.Breakdown.Total()
		}
		now := timeline.Advance(step)
		sampler.Sample(now)
		wd.Evaluate(now)
		tail.Flush(now)
	}
	tail.FlushAll()
	st.alerts, st.injected = wd.Alerts(), faultsInjected(c.Metrics())
	return st
}

func faultsInjected(reg *metrics.Registry) (n int64) {
	for _, cs := range reg.Snapshot().Counters {
		if strings.HasPrefix(cs.Name, "faults_injected_total{") {
			n += cs.Value
		}
	}
	return n
}

// export renders one of a run's exports.
func export(t *testing.T, write func(io.Writer) error) string {
	t.Helper()
	var sb strings.Builder
	if err := write(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func ndjson(j *events.Journal) func(io.Writer) error {
	return func(w io.Writer) error { return events.WriteNDJSON(w, j.Events()) }
}

// TestSeededStorm replays the seeded fault storms: the cluster storm
// across its arms, and the workflow storm with DLQ recovery.
func TestSeededStorm(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"cluster", testClusterStorm},
		{"workflow", testWorkflowStorm},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tc.run(t)
		})
	}
}

func testClusterStorm(t *testing.T) {
	budget := stormBudget(t)
	resilient := runStorm(t, budget, stormArm{resilient: true})
	replay := runStorm(t, budget, stormArm{resilient: true})
	exposed := runStorm(t, budget, stormArm{journalCap: stormJournalCap})
	sampled := runStorm(t, budget, stormArm{journalCap: stormJournalCap, sampled: true})

	// The full metrics dump (every counter, gauge, bucket and quantile)
	// is the most sensitive determinism witness. It is compared first:
	// reading a counter below registers it.
	if export(t, resilient.c.Metrics().Snapshot().WriteText) != export(t, replay.c.Metrics().Snapshot().WriteText) {
		t.Error("same seed diverged: metrics dumps differ")
	}

	// Stage retries absorb the faults within a node; failover alone
	// would also reach 99% here, so the retry count is asserted too.
	retries := resilient.c.Metrics().Counter("retries_total").Value()
	if r := resilient.successRate(); r < 0.99 || resilient.injected == 0 || retries == 0 {
		t.Errorf("resilient success %.1f%% with %d faults injected and %d retries, want >= 99%%, faults > 0, retries > 0",
			r*100, resilient.injected, retries)
	}
	if exposed.successRate() >= resilient.successRate() {
		t.Errorf("exposed success %.1f%% not below resilient %.1f%%", exposed.successRate()*100, resilient.successRate()*100)
	}

	// The exposed storm breaches the 99% SLO, and the alert's causal
	// link resolves to a trace; the resilient storm holds it.
	if len(exposed.alerts) == 0 || exposed.alerts[0].Rule != "invoke-success-rate" {
		t.Errorf("exposed alerts = %+v, want invoke-success-rate", exposed.alerts)
	} else if a := exposed.alerts[0]; a.Link.Trace == 0 || len(exposed.c.Journal().Trace(a.Link.Trace)) == 0 {
		t.Errorf("exposed alert link trace %d does not resolve", a.Link.Trace)
	}
	if len(resilient.alerts) != 0 {
		t.Errorf("resilient storm fired %d alerts, want none", len(resilient.alerts))
	}

	// Tail sampling keeps every alert's trace and shrinks the export.
	if len(sampled.alerts) == 0 {
		t.Error("sampled storm fired no alerts")
	}
	for _, a := range sampled.alerts {
		if a.Link.Trace == 0 || len(sampled.c.Journal().Trace(a.Link.Trace)) == 0 {
			t.Errorf("sampled alert link trace %d does not resolve", a.Link.Trace)
		}
	}
	full, kept := len(export(t, ndjson(exposed.c.Journal()))), len(export(t, ndjson(sampled.c.Journal())))
	if kept == 0 || full < 5*kept {
		t.Errorf("sampled export %d -> %d bytes, want >= 5x smaller", full, kept)
	}
	t.Logf("success: resilient %.1f%% (%d faults, %d retries), exposed %.1f%%; export %d -> %d bytes; %d exposed alerts",
		resilient.successRate()*100, resilient.injected, retries, exposed.successRate()*100, full, kept, len(exposed.alerts))

	checkBlame(t, resilient.c.Journal())
}

// checkBlame runs insight over the resilient journal. A latency spike
// (1.5 s by default) dwarfs every healthy stage, so each spiked trace's
// top blame row must be a faulted site; and the slowest-K report must
// agree with analysing each of its traces alone.
func checkBlame(t *testing.T, journal *events.Journal) {
	t.Helper()
	evs := journal.Events()
	rep := insight.Analyze(evs)
	type spanKey struct {
		trace events.TraceID
		span  events.SpanID
	}
	spanSite := map[spanKey]string{}
	spiked := map[events.TraceID]map[string]bool{}
	for _, e := range evs {
		switch {
		case e.Kind == events.KindBegin:
			spanSite[spanKey{e.Trace, e.Span}] = e.Component + ":" + e.Name
		case e.Kind == events.KindInstant && e.Component == "faults":
			site := spanSite[spanKey{e.Trace, e.Parent}]
			for _, a := range e.Attrs {
				if a.Key == "kind" && a.Value == "latency" && site != "" {
					if spiked[e.Trace] == nil {
						spiked[e.Trace] = map[string]bool{}
					}
					spiked[e.Trace][site] = true
				}
			}
		}
	}
	spikedTraces := 0
	for _, ti := range rep.Traces {
		sites := spiked[ti.Trace]
		if len(sites) == 0 {
			continue
		}
		spikedTraces++
		if len(ti.Blame) == 0 || (ti.Blame[0].Faults == 0 && !sites[ti.Blame[0].Site]) {
			t.Errorf("trace %d: top blame %+v is not a spiked site %v", ti.Trace, ti.Blame, sites)
		}
	}
	if spikedTraces == 0 {
		t.Error("no latency-spiked traces in the storm")
	}
}

// testWorkflowStorm drives the workflow engine under a seeded storm:
// the Alexa DAG run directly, wage analysis on a change feed, and
// a fan-out/fan-in pipeline whose poisoned branch parks on the DLQ
// until the missing function is deployed and the DLQ replayed.
func testWorkflowStorm(t *testing.T) {
	plane := faults.NewPlane(31)
	env := platform.NewEnv(platform.EnvConfig{Faults: plane})
	fw := core.New(env, core.Options{Retry: faults.DefaultRetryPolicy()})
	apps := append(append(workloads.AlexaSkills(), workloads.DataAnalysis()...), workloads.WorkflowFunctions()...)
	for i := len(apps) - 1; i >= 0; i-- { // callees before callers
		if _, err := fw.Install(apps[i].Function); err != nil {
			t.Fatal(err)
		}
	}
	eng := workflow.New(env.Bus, env.Events, env.Metrics, fw, workflow.Options{Retry: faults.DefaultRetryPolicy()})
	// The poisoned branch's callee is deployed only for recovery.
	missing := platform.Function{Name: "wf-missing", Lang: runtime.LangNode, DefaultParams: map[string]any{"text": "prime"},
		Source: `func main(params) { return {"recovered": true, "text": params.text}; }`}
	pipeline := &workflow.Spec{
		Name: "pipeline",
		Steps: []workflow.Step{
			{ID: "head", Function: workloads.NameAlexaIntent},
			{ID: "healthy", Function: workloads.NameAlexaFact, After: []string{"head"},
				Input: map[string]any{"query": "$input.text"}},
			{ID: "poison", Function: missing.Name, After: []string{"head"}},
			{ID: "join", Function: workloads.NameAlexaIntent, After: []string{"healthy", "poison"}},
		},
	}
	for _, spec := range []*workflow.Spec{workloads.AlexaWorkflow(), workloads.WageInsertWorkflow(), workloads.WageAnalysisWorkflow(), pipeline} {
		if err := eng.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	eng.AddChangeFeed(env.Couch.CreateDB("wages"), "wage-analysis",
		func(c couchdb.Change) bool { return !c.Deleted && strings.HasPrefix(c.ID, "wage-e") },
		func(c couchdb.Change) map[string]any { return map[string]any{"trigger": c.ID} })
	plane.ApplyDefaultPlan(0.01)

	// An Alexa run and a wage ingest every 7 ms, every other one chased
	// by a poisoned pipeline run. Run errors are part of the seeded
	// schedule; the run statuses below are the judge.
	var runs []*workflow.Run
	keep := func(r *workflow.Run, _ error) {
		if r != nil {
			runs = append(runs, r)
		}
	}
	alexa := map[string]any{"text": "remind me to check the storm", "action": "list"}
	var now time.Duration
	for i, rec := range []map[string]any{
		{"name": "ada", "id": "e1", "role": "Engineer", "base": 72000}, {"name": "grace", "id": "e2", "role": "Manager", "base": 95000},
		{"name": "alan", "id": "e3", "role": "Engineer", "base": 68000}, {"name": "edsger", "id": "e4", "role": "Analyst", "base": 54000},
		{"name": "barbara", "id": "e5", "role": "Manager", "base": 120000},
	} {
		now = time.Duration(i+1) * 7 * time.Millisecond
		keep(eng.Run("alexa", alexa, now))
		keep(eng.Run("wage-ingest", rec, now))
		runs = append(runs, eng.Drain(now)...)
		if i%2 == 0 {
			keep(eng.Run("pipeline", map[string]any{"text": "poisoned request"}, now))
		}
	}

	// Drain leaves out a triggered run that stalled at enqueue; the
	// per-workflow run counters catch one that went missing.
	reg := env.Metrics
	started := map[string]int64{}
	for _, r := range runs {
		started[r.Workflow]++
	}
	for _, name := range eng.Workflows() {
		if want := reg.Counter(metrics.Name("workflow_runs_total", "workflow", name)).Value(); started[name] != want {
			t.Errorf("%s: checked %d runs, engine started %d", name, started[name], want)
		}
	}

	healthy, poisoned := 0, 0
	for _, r := range runs {
		switch {
		case r.Workflow == "pipeline":
			poisoned++
		case r.Status != workflow.RunCompleted:
			t.Errorf("at-least-once: %s run %s ended %v under faults", r.Workflow, r.ID, r.Status)
		default:
			healthy++
		}
	}
	if injected := faultsInjected(reg); healthy == 0 || poisoned == 0 || injected == 0 {
		t.Errorf("storm ran %d healthy and %d poisoned runs with %d faults; want all > 0", healthy, poisoned, injected)
	}
	if reg.Counter(metrics.Name("workflow_triggers_fired_total", "source", workflow.SourceChangeFeed)).Value() == 0 {
		t.Error("change-feed trigger never fired")
	}

	// Recovery, under the same armed plane: every stalled run resumes
	// from its parked step and the DLQ drains.
	if _, err := fw.Install(missing); err != nil {
		t.Fatal(err)
	}
	replayed, err := eng.ReplayDLQ("pipeline", now+5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	recovered := 0
	for _, r := range replayed {
		if r.Status == workflow.RunCompleted {
			recovered++
		}
	}
	depth := reg.Gauge(metrics.Name("workflow_dlq_depth", "workflow", "pipeline")).Value()
	if recovered != poisoned || depth != 0 {
		t.Errorf("DLQ replay recovered %d/%d runs, depth %d; want all, depth 0", recovered, poisoned, depth)
	}
}
