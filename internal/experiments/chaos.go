package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/telemetry"
	"repro/internal/timeseries"
	"repro/internal/vclock"
	"repro/internal/workloads"
)

// Chaos experiment: the paper's evaluation assumes every restore, queue
// fetch, and snapshot transfer succeeds. RunChaos measures what the
// platform does when they don't — the same seeded fault schedule is
// replayed against two configurations of a three-node cluster:
//
//   - resilient: per-stage retries (exponential backoff, per-attempt
//     deadlines) plus controller-level failover re-placement;
//   - exposed: the identical fault plane with every policy disabled,
//     the paper's fail-fast baseline.
//
// Because the plane, retry jitter, and workload are all deterministic
// on the virtual clock, a fixed seed reproduces the run — including
// the metrics dump — byte for byte. The experiment verifies that too.

const (
	// chaosSeed pins the fault schedule; change it and you get a
	// different (but equally reproducible) storm.
	chaosSeed = 22
	// chaosRate is the ~1% per-operation fault rate of the ISSUE's
	// acceptance bar.
	chaosRate  = 0.01
	chaosNodes = 3
	// chaosInvocations is the request count per configuration — large
	// enough that a 1% rate injects a meaningful number of faults.
	chaosInvocations = 300
)

// chaosBudget sizes each node's snapshot store to hold the shared base
// image plus exactly one of the two function deltas — one byte short of
// both — so alternating functions keep evicting each other's delta and
// the storm continuously exercises the eviction + remote-fetch path.
// Everything runs on the virtual clock, so the probe is deterministic.
func chaosBudget() (uint64, error) {
	env := platform.NewEnv(platform.EnvConfig{})
	fw := core.New(env, core.Options{})
	for _, w := range []workloads.Workload{workloads.Fact(runtime.LangNode), workloads.MatrixMult(runtime.LangNode)} {
		if _, err := fw.Install(w.Function); err != nil {
			return 0, err
		}
	}
	return env.Snaps.UsedBytes() - 1, nil
}

// stormArm is what distinguishes one run of the seeded storm from
// another; seed, rate, fleet size, functions and request sequence are
// the same for all of them.
type stormArm struct {
	// env sizes each node and may carry a journal; runStorm adds the
	// fault plane.
	env platform.EnvConfig
	// resilient turns on stage retries and controller failover.
	resilient bool
	// probe prefixes the requests/failures series the watchdog reads.
	probe string
	// sampled arms the tail-based trace sampler.
	sampled bool
}

// storm is one finished run of the seeded storm.
type storm struct {
	c         *cluster.Cluster
	successes int
	failures  int
	// alerts is what the SLO watchdog fired; each alert's causal link
	// resolves through c.Journal() to the trace that broke the SLO.
	alerts []timeseries.Alert
	// tail is the armed trace sampler (nil, and nil-safe, without one).
	tail *telemetry.TailSampler
	// end is where the storm left its virtual timeline.
	end time.Duration
}

func (s *storm) successRate() float64 {
	return float64(s.successes) / float64(s.successes+s.failures)
}

// runStorm replays the seeded storm against one arm: chaosInvocations
// requests alternating faas-fact and faas-matrix-mult on a
// chaosNodes-node Fireworks cluster whose data path faults at chaosRate.
func runStorm(arm stormArm) (*storm, error) {
	plane := faults.NewPlane(chaosSeed)
	arm.env.Faults = plane
	retry, failover := faults.RetryPolicy{}, cluster.FailoverPolicy{MaxFailovers: 0}
	if arm.resilient {
		retry, failover.MaxFailovers = faults.DefaultRetryPolicy(), 2
	}
	c := cluster.New(chaosNodes, cluster.RoundRobin, arm.env, func(env *platform.Env) platform.Platform {
		return core.New(env, core.Options{Retry: retry})
	})
	c.SetFailover(failover)

	// Install fault-free: the storm targets the data path, not the
	// one-time deploy. Profiles arm only after both functions are in.
	ws := [2]workloads.Workload{workloads.Fact(runtime.LangNode), workloads.MatrixMult(runtime.LangNode)}
	for _, w := range ws {
		if err := c.Install(w.Function); err != nil {
			return nil, err
		}
	}
	st := &storm{c: c}
	if arm.sampled {
		st.tail = telemetry.New(telemetry.Config{Seed: telemSampleSeed, KeepRate: telemKeepRate})
		st.tail.Attach(c.Journal(), c.Metrics())
	}
	plane.ApplyDefaultPlan(chaosRate)

	// The SLO watchdog rides along on the storm's virtual timeline: one
	// sample per request, and the invoke-success-rate rule is evaluated
	// at every sample. MinDen keeps it from firing before the storm has
	// produced a statistically meaningful denominator.
	requests, failures := arm.probe+"_requests_total", arm.probe+"_failures_total"
	sampler := timeseries.NewSampler(c.Metrics(), timeseries.DefaultCapacity)
	sampler.AddProbe(requests, func() float64 { return float64(st.successes + st.failures) })
	sampler.AddProbe(failures, func() float64 { return float64(st.failures) })
	wd := timeseries.NewWatchdog(sampler, c.Journal(), c.Metrics())
	wd.AddRule(timeseries.Rule{
		Name:      "invoke-success-rate",
		Ratio:     &timeseries.RatioSource{Num: failures, Den: requests, Complement: true, MinDen: 50},
		Op:        timeseries.AtLeast,
		Threshold: 0.99,
	})
	timeline := vclock.New()
	sampler.Sample(0)

	params := [2]lang.Value{
		platform.MustParams(map[string]any{"n": 101, "rounds": 2}),
		platform.MustParams(map[string]any{"n": 4}),
	}
	for i := 0; i < chaosInvocations; i++ {
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
		st.tail.Flush(now)
	}
	st.alerts = wd.Alerts()
	st.end = timeline.Now()
	return st, nil
}

// chaosOutcome is what one configuration's storm produced.
type chaosOutcome struct {
	*storm
	injected int64
	dump     string
	// ndjson is the run's full event journal (the determinism witness).
	ndjson []byte
}

// runChaosOnce replays the storm against one configuration, on nodes
// sized by chaosBudget.
func runChaosOnce(resilient bool) (*chaosOutcome, error) {
	budget, err := chaosBudget()
	if err != nil {
		return nil, err
	}
	st, err := runStorm(stormArm{
		env:       platform.EnvConfig{SnapshotDiskBudget: budget, RemoteSnapshotStorage: true},
		resilient: resilient,
		probe:     "chaos",
	})
	if err != nil {
		return nil, err
	}
	out := &chaosOutcome{storm: st}
	reg := st.c.Metrics()
	for _, cs := range reg.Snapshot().Counters {
		if strings.HasPrefix(cs.Name, "faults_injected_total{") {
			out.injected += cs.Value
		}
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		return nil, err
	}
	out.dump = sb.String()
	var nd bytes.Buffer
	if err := events.WriteNDJSON(&nd, st.c.Journal().Events()); err != nil {
		return nil, err
	}
	out.ndjson = nd.Bytes()
	return out, nil
}

// RunChaos is registered as experiment id "chaos".
func RunChaos() (*Result, error) {
	resilient, err := runChaosOnce(true)
	if err != nil {
		return nil, err
	}
	exposed, err := runChaosOnce(false)
	if err != nil {
		return nil, err
	}
	// Determinism: the same seed and configuration must reproduce the
	// whole run — checked on the full metrics dump, the most sensitive
	// artifact (every counter, gauge, bucket, and quantile).
	replay, err := runChaosOnce(true)
	if err != nil {
		return nil, err
	}
	reproducible := resilient.dump == replay.dump
	traceReproducible := bytes.Equal(resilient.ndjson, replay.ndjson)

	res := &Result{ID: "chaos"}
	row := func(mode string, o *chaosOutcome) []string {
		reg := o.c.Metrics()
		return []string{
			mode,
			fmt.Sprintf("%d", o.successes+o.failures),
			fmt.Sprintf("%d", o.injected),
			fmt.Sprintf("%d", o.successes),
			fmt.Sprintf("%d", o.failures),
			fmt.Sprintf("%.1f%%", o.successRate()*100),
			fmt.Sprintf("%d", reg.Counter("retries_total").Value()),
			fmt.Sprintf("%d", reg.Counter("failovers_total").Value()),
			fmt.Sprintf("%d", reg.Counter("cluster_node_crashes_total").Value()),
		}
	}
	res.Tables = append(res.Tables, Table{
		ID:     "chaos",
		Title:  fmt.Sprintf("Chaos: %d invocations at %.0f%% fault rate (seed %d, %d nodes)", chaosInvocations, chaosRate*100, chaosSeed, chaosNodes),
		Header: []string{"mode", "requests", "faults", "ok", "failed", "success", "retries", "failovers", "crashes"},
		Rows: [][]string{
			row("resilient (retry+failover)", resilient),
			row("exposed (policies off)", exposed),
		},
		Notes: []string{
			"same seed, same fault schedule: the two modes differ only in policy",
			"latency-spike faults succeed slowly, so they fail nothing in exposed mode either",
		},
	})
	res.Checks = append(res.Checks,
		Check{
			Name:     "resilient success rate with faults injected",
			Expected: ">= 99%",
			Measured: fmt.Sprintf("%.1f%% (%d faults injected)", resilient.successRate()*100, resilient.injected),
			Pass:     resilient.successRate() >= 0.99 && resilient.injected > 0,
		},
		Check{
			Name:     "policies off degrades measurably",
			Expected: "success < resilient",
			Measured: fmt.Sprintf("%.1f%% vs %.1f%%", exposed.successRate()*100, resilient.successRate()*100),
			Pass:     exposed.successRate() < resilient.successRate(),
		},
		Check{
			Name:     "fixed seed reproduces the metrics dump",
			Expected: "byte-identical",
			Measured: map[bool]string{true: "identical", false: "DIVERGED"}[reproducible],
			Pass:     reproducible,
		},
		Check{
			Name:     "fixed seed reproduces the event journal",
			Expected: "byte-identical NDJSON",
			Measured: map[bool]string{true: "identical", false: "DIVERGED"}[traceReproducible],
			Pass:     traceReproducible,
		},
	)

	// SLO watchdog: the exposed storm must breach the 99% success SLO
	// and the alert must carry a causal link into the journal that
	// resolves to the trace of a failing request; the resilient storm
	// holds the SLO, so the same rule must stay quiet there.
	linkResolves := false
	alertDetail := "no alert fired"
	if len(exposed.alerts) > 0 {
		a := exposed.alerts[0]
		linked := exposed.c.Journal().Trace(a.Link.Trace)
		linkResolves = a.Link.Trace != 0 && len(linked) > 0
		alertDetail = fmt.Sprintf("%s at %v (value %.3f, link trace %d: %d events)",
			a.Rule, a.At, a.Value, uint64(a.Link.Trace), len(linked))
	}
	res.Checks = append(res.Checks,
		Check{
			Name:     "SLO watchdog fires under the exposed storm",
			Expected: "invoke-success-rate alert",
			Measured: alertDetail,
			Pass:     len(exposed.alerts) > 0 && exposed.alerts[0].Rule == "invoke-success-rate",
		},
		Check{
			Name:     "alert causally links to a failing trace",
			Expected: "link resolves via the journal",
			Measured: alertDetail,
			Pass:     linkResolves,
		},
		Check{
			Name:     "watchdog stays quiet on the resilient storm",
			Expected: "no alerts",
			Measured: fmt.Sprintf("%d alerts", len(resilient.alerts)),
			Pass:     len(resilient.alerts) == 0,
		},
	)
	// The same journal as Perfetto-loadable trace JSON.
	var chrome bytes.Buffer
	if err := events.WriteChromeTrace(&chrome, resilient.c.Journal().Events()); err != nil {
		return nil, err
	}
	res.Artifacts = append(res.Artifacts,
		Artifact{Name: "chaos-trace.json", Contents: chrome.Bytes()},
		Artifact{Name: "chaos-trace.ndjson", Contents: resilient.ndjson},
	)
	return res, nil
}
