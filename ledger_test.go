package repro_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
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
// clock exactly, with no time outside the paper's three phases.
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
		p := pc.mk(platform.NewEnv(platform.EnvConfig{}))
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
				inv, err := p.Invoke(w.Name, platform.MustParams(w.DefaultParams), platform.InvokeOptions{Mode: mode})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if u := conserved(t, what, inv, 0); len(u) != 0 {
					t.Errorf("%s: unphased charges %v", what, u)
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
		u := conserved(t, fmt.Sprintf("invoke %d", i), inv, 0)
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
	replayed, err := eng.ReplayDLQ("late", time.Second)
	if err != nil || len(replayed) != 1 || run.Status != workflow.RunCompleted {
		t.Fatalf("replay = %v, %v; want the run completed", replayed, err)
	}
	u := conserved(t, "dlq replay", run.Invocation, start)
	if got := labels(u); got != "dlq-replay,retry-backoff" {
		t.Errorf("dlq replay: unphased labels %q, want dlq-replay,retry-backoff", got)
	}
}
