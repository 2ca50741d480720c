package repro_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/vclock"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// conserved checks one invocation's ledger against its clock, which
// started at start: every charge is labelled, the charges sum to the
// clock's elapsed time, and the phased ones to Total(). It returns the
// unphased charges by label.
func conserved(t *testing.T, what string, inv *platform.Invocation, start time.Duration) map[string]time.Duration {
	t.Helper()
	var all, phased time.Duration
	unphased := map[string]time.Duration{}
	for _, e := range inv.Clock.Ledger() {
		if e.Label == "" {
			t.Errorf("%s: an unlabelled %v charge of %v", what, e.Phase, e.Total)
		}
		all += e.Total
		if e.Phase == vclock.Unphased {
			unphased[e.Label] += e.Total
		} else {
			phased += e.Total
		}
	}
	if elapsed := inv.Clock.Now() - start; all != elapsed {
		t.Errorf("%s: charges sum to %v, the clock moved %v", what, all, elapsed)
	}
	if total := inv.Breakdown.Total(); phased != total {
		t.Errorf("%s: phased charges sum to %v, Total() = %v", what, phased, total)
	}
	return unphased
}

// spanned checks the span side of one invocation's ledger. Its clock
// carried the given scopes, whose traces are in env's journal: no span
// there ended with a self time other than the charges booked while it
// was innermost (events_span_self_mismatch_total stays absent), and the
// spans' self times plus outside, the charges booked while no span was
// open, sum to the clock's elapsed time since start. It returns the
// self times by site (component:name).
func spanned(t *testing.T, what string, env *platform.Env, inv *platform.Invocation, start, outside time.Duration, scopes ...*events.Scope) map[string]time.Duration {
	t.Helper()
	for _, c := range env.Metrics.Snapshot().Counters {
		if c.Name == "events_span_self_mismatch_total" {
			t.Errorf("%s: %d spans ended with a self time other than their charges", what, c.Value)
		}
	}
	self := map[string]time.Duration{}
	var spans time.Duration
	for _, sc := range scopes {
		begun := map[events.SpanID]events.Event{}
		for _, e := range env.Events.Trace(sc.TraceID()) {
			switch e.Kind {
			case events.KindBegin:
				begun[e.Span] = e
			case events.KindEnd:
				b := begun[e.Span]
				d := e.TS - b.TS
				self[b.Component+":"+b.Name] += d
				spans += d
				if p, ok := begun[b.Parent]; ok {
					self[p.Component+":"+p.Name] -= d
					spans -= d
				}
			}
		}
	}
	if elapsed := inv.Clock.Now() - start; spans+outside != elapsed {
		t.Errorf("%s: span self times %v and %v outside every span sum to %v, the clock moved %v", what, spans, outside, spans+outside, elapsed)
	}
	return self
}

// labels lists a label set in order.
func labels(m map[string]time.Duration) string {
	var out []string
	for l := range m {
		out = append(out, l)
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

// TestLedgerConservation runs every workload on every platform, cold
// and warm, and requires each invocation's ledger to account for its
// clock exactly, with no time outside the paper's three phases. Each
// runs under a request span of the test's (as under a gateway), which
// its spans must account for exactly too; on Fireworks no time is the
// request's or core:invoke's own, so every charge is in a stage span.
func TestLedgerConservation(t *testing.T) {
	platforms := []struct {
		name   string
		mk     func(*platform.Env) platform.Platform
		chains bool
	}{
		{"fireworks", func(env *platform.Env) platform.Platform { return core.New(env, core.Options{}) }, true},
		{"openwhisk", platform.NewOpenWhisk, true},
		{"gvisor", platform.NewGVisor, false},
		{"firecracker", func(env *platform.Env) platform.Platform {
			return platform.NewFirecracker(env, platform.FCNoSnapshot)
		}, false},
		{"firecracker+os-snapshot", func(env *platform.Env) platform.Platform {
			return platform.NewFirecracker(env, platform.FCOSSnapshot)
		}, false},
	}
	all := workloads.All()
	invokes := 0
	for _, pc := range platforms {
		env := platform.NewEnv(platform.EnvConfig{})
		p := pc.mk(env)
		for i := len(all) - 1; i >= 0; i-- { // callees before callers
			if _, err := p.Install(all[i].Function); err != nil {
				t.Fatalf("%s: install %s: %v", pc.name, all[i].Name, err)
			}
		}
		for _, w := range all {
			if w.Suite != "FaaSdom" && !pc.chains {
				continue // the applications chain functions, which this platform cannot run
			}
			for _, mode := range []platform.StartMode{platform.ModeCold, platform.ModeWarm} {
				what := fmt.Sprintf("%s %s %v", pc.name, w.Name, mode)
				sc := env.Events.NewScope("test", "request", 0)
				inv, err := p.Invoke(w.Name, platform.MustParams(w.DefaultParams), platform.InvokeOptions{Mode: mode, Trace: sc})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				sc.Close(inv.Clock.Now())
				if u := conserved(t, what, inv, 0); len(u) != 0 {
					t.Errorf("%s: unphased charges %v", what, u)
				}
				self := spanned(t, what, env, inv, 0, 0, sc)
				if pc.name == "fireworks" && (self["test:request"] != 0 || self["core:invoke"] != 0) {
					t.Errorf("%s: %v of the request and %v of core:invoke are in no stage span", what, self["test:request"], self["core:invoke"])
				}
				invokes++
			}
		}
	}
	if invokes < 50 {
		t.Fatalf("checked %d invocations", invokes)
	}
}

// TestLedgerNamesRetryBackoff runs 2,000 fact invocations through
// Fireworks under the default fault plan at 5 % and the default retry
// policy. A retried parameter produce backs off between pipeline
// stages, outside every phase: that time moves the clock but is not in
// Total(), and the ledger must name it: 98 invocations end past their
// Total(), and what they spent is exactly their retry-backoff charges.
func TestLedgerNamesRetryBackoff(t *testing.T) {
	if testing.Short() {
		t.Skip("2,000 guest runs of fact; minutes under the race detector")
	}
	plane := faults.NewPlane(7)
	env := platform.NewEnv(platform.EnvConfig{Faults: plane})
	fw := core.New(env, core.Options{Retry: faults.DefaultRetryPolicy()})
	fact := workloads.Fact(runtime.LangNode)
	if _, err := fw.Install(fact.Function); err != nil {
		t.Fatal(err)
	}
	plane.ApplyDefaultPlan(0.05)
	params := platform.MustParams(fact.DefaultParams)
	ok, gapped := 0, 0
	var gap time.Duration
	seen := map[string]time.Duration{}
	for i := 0; i < 2000; i++ {
		inv, err := fw.Invoke(fact.Name, params, platform.InvokeOptions{})
		if err != nil {
			continue
		}
		ok++
		what := fmt.Sprintf("invoke %d", i)
		u := conserved(t, what, inv, 0)
		if self := spanned(t, what, env, inv, 0, 0, inv.Clock.Scope()); self["core:invoke"] != 0 {
			t.Errorf("%s: %v of core:invoke is in no stage span", what, self["core:invoke"])
		}
		if d := inv.Clock.Now() - inv.Breakdown.Total(); d != 0 {
			gapped++
			gap += d
		}
		for l, d := range u {
			seen[l] += d
		}
	}
	if got := labels(seen); got != "retry-backoff" {
		t.Errorf("unphased labels %q, want retry-backoff", got)
	}
	if gapped != 98 || seen["retry-backoff"] != gap {
		t.Errorf("%d invocations end past Total() by %v in all; retry-backoff books %v", gapped, gap, seen["retry-backoff"])
	}
	t.Logf("%d of 2000 invocations succeeded; %d spent %v in retry backoff outside every phase", ok, gapped, gap)
}

// TestLedgerChainAndDLQReplay checks a chained application, whose
// callees charge the caller's clock, and a workflow run resumed from
// its dead-letter queue, whose clock waits for the replay unphased.
func TestLedgerChainAndDLQReplay(t *testing.T) {
	env := platform.NewEnv(platform.EnvConfig{})
	fw := core.New(env, core.Options{Retry: faults.DefaultRetryPolicy()})
	apps := append(workloads.AlexaSkills(), workloads.WorkflowFunctions()...)
	for i := len(apps) - 1; i >= 0; i-- {
		if _, err := fw.Install(apps[i].Function); err != nil {
			t.Fatal(err)
		}
	}
	frontend := apps[0]
	inv, err := fw.Invoke(frontend.Name, platform.MustParams(frontend.DefaultParams), platform.InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if u := conserved(t, "chain "+frontend.Name, inv, 0); len(u) != 0 {
		t.Errorf("chain: unphased charges %v", u)
	}
	if self := spanned(t, "chain", env, inv, 0, 0, inv.Clock.Scope()); self["core:invoke"] != 0 {
		t.Errorf("chain: %v of core:invoke is in no stage span", self["core:invoke"])
	}

	missing := platform.Function{Name: "late", Lang: runtime.LangNode,
		Source: `func main(params) { return {"ok": true}; }`}
	eng := workflow.New(env.Bus, env.Events, env.Metrics, fw, workflow.Options{Retry: faults.DefaultRetryPolicy()})
	if err := eng.Register(&workflow.Spec{Name: "late", Steps: []workflow.Step{
		{ID: "head", Function: workloads.NameAlexaIntent},
		{ID: "tail", Function: missing.Name, After: []string{"head"}},
	}}); err != nil {
		t.Fatal(err)
	}
	const start = 3 * time.Millisecond
	run, err := eng.Run("late", map[string]any{"text": "remind me"}, start)
	if err != nil || run.Status != workflow.RunStalled {
		t.Fatalf("run = %v, %v; want stalled on the missing step", run.Status, err)
	}
	if _, err := fw.Install(missing); err != nil {
		t.Fatal(err)
	}
	stalled := run.Invocation.Clock.Scope()
	replayed, err := eng.ReplayDLQ("late", time.Second)
	if err != nil || len(replayed) != 1 || run.Status != workflow.RunCompleted {
		t.Fatalf("replay = %v, %v; want the run completed", replayed, err)
	}
	u := conserved(t, "dlq replay", run.Invocation, start)
	if got := labels(u); got != "dlq-replay,retry-backoff" {
		t.Errorf("dlq replay: unphased labels %q, want dlq-replay,retry-backoff", got)
	}
	// The wait for the replay is the one charge outside every span.
	spanned(t, "dlq replay", env, run.Invocation, start, u["dlq-replay"], stalled, run.Invocation.Clock.Scope())
}
