package experiments

import (
	"bytes"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/events"
	"repro/internal/insight"
	"repro/internal/msgbus"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/telemetry"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// Telemetry-plane experiment: replay the chaos storm in exposed mode
// (no retries, so real failures and a firing SLO alert are part of the
// schedule) twice — once at full journal fidelity, once with the
// tail-based trace sampler armed — and verify the plane's contract:
//
//   - the sampled journal export shrinks by at least 5x in bytes;
//   - every trace that carried an error, absorbed an injected fault,
//     or dead-lettered a workflow step survives sampling (100%
//     retention of the interesting tail), and every SLO alert's causal
//     link still resolves through the sampled journal;
//   - the sampled NDJSON export and the insight report built over it
//     are byte-identical across same-seed replays — sampling must not
//     cost determinism.

const (
	// telemKeepRate is the probabilistic keep fraction for boring
	// traces; the always-keep policies ride above it.
	telemKeepRate = 0.05
	// telemSampleSeed drives the probabilistic keep decisions.
	telemSampleSeed = 7
	// telemJournalCap is generous enough that no arm ever evicts: the
	// byte reduction must come from sampling, not from ring overflow.
	telemJournalCap = 1 << 17
)

// telemOutcome is what one storm arm produced.
type telemOutcome struct {
	*storm
	// ndjson is the post-flush journal export; insightJSON the full
	// insight report over the same events (coverage-annotated when
	// sampled).
	ndjson      []byte
	insightJSON []byte
	stats       telemetry.Stats
	// errorTraces/faultTraces/dlqTraces classify the journal's traces
	// by what the sampling policies must preserve.
	errorTraces map[events.TraceID]bool
	faultTraces map[events.TraceID]bool
	dlqTraces   map[events.TraceID]bool
}

// telemPipeline is a two-step workflow whose second step calls a
// function that is never installed: the run stalls, the step
// dead-letters, and the journal gets a workflow/step-dead instant —
// the DLQ always-keep policy's trigger.
func telemPipeline() *workflow.Spec {
	return &workflow.Spec{
		Name: "telem-pipeline",
		Steps: []workflow.Step{
			{ID: "head", Function: workloads.Fact(runtime.LangNode).Name},
			{ID: "poison", Function: "telem-missing", After: []string{"head"}},
		},
	}
}

// runTelemOnce replays the storm in exposed mode — no retries, no
// failover, so its failures are real and the journal has an interesting
// tail to preserve — with or without the tail sampler armed.
func runTelemOnce(sampled bool) (*telemOutcome, error) {
	st, err := runStorm(stormArm{
		env:     platform.EnvConfig{Events: events.NewJournal(telemJournalCap)},
		probe:   "telem",
		sampled: sampled,
	})
	if err != nil {
		return nil, err
	}
	c := st.c
	// One poisoned workflow run dead-letters its second step; errors are
	// expected (that is the point), the DLQ instant is the witness.
	eng := workflow.New(msgbus.NewBroker(), c.Journal(), c.Metrics(), cluster.Invoker{C: c}, workflow.Options{})
	if err := eng.Register(telemPipeline()); err != nil {
		return nil, err
	}
	_, _ = eng.Run("telem-pipeline", map[string]any{"n": 3, "rounds": 1}, st.end)
	st.tail.FlushAll()
	out := &telemOutcome{storm: st, stats: st.tail.Stats()}

	evs := c.Journal().Events()
	out.errorTraces = make(map[events.TraceID]bool)
	out.faultTraces = make(map[events.TraceID]bool)
	out.dlqTraces = make(map[events.TraceID]bool)
	for _, e := range evs {
		if e.Trace == 0 {
			continue
		}
		for _, a := range e.Attrs {
			if a.Key == "error" {
				out.errorTraces[e.Trace] = true
			}
		}
		if e.Kind == events.KindInstant && e.Component == "faults" {
			out.faultTraces[e.Trace] = true
		}
		if e.Kind == events.KindInstant && e.Component == "workflow" && e.Name == "step-dead" {
			out.dlqTraces[e.Trace] = true
		}
	}

	var nd bytes.Buffer
	if err := events.WriteNDJSON(&nd, evs); err != nil {
		return nil, err
	}
	out.ndjson = nd.Bytes()
	rep := insight.Analyze(evs)
	if sampled {
		rep.AnnotateCoverage(int(out.stats.KeptTraces), int(out.stats.DecidedTraces))
	}
	var ij bytes.Buffer
	if err := rep.WriteJSON(&ij); err != nil {
		return nil, err
	}
	out.insightJSON = ij.Bytes()
	return out, nil
}

// retained counts how many of the given traces still resolve through
// the sampled journal.
func retained(traces map[events.TraceID]bool, j *events.Journal) (kept, total int) {
	for id := range traces {
		total++
		if len(j.Trace(id)) > 0 {
			kept++
		}
	}
	return kept, total
}

// RunTelem is registered as experiment id "telem".
func RunTelem() (*Result, error) {
	full, err := runTelemOnce(false)
	if err != nil {
		return nil, err
	}
	sampled, err := runTelemOnce(true)
	if err != nil {
		return nil, err
	}
	replay, err := runTelemOnce(true)
	if err != nil {
		return nil, err
	}

	reduction := 0.0
	if len(sampled.ndjson) > 0 {
		reduction = float64(len(full.ndjson)) / float64(len(sampled.ndjson))
	}
	errKept, errTotal := retained(full.errorTraces, sampled.c.Journal())
	faultKept, faultTotal := retained(full.faultTraces, sampled.c.Journal())
	dlqKept, dlqTotal := retained(full.dlqTraces, sampled.c.Journal())

	alertLinksResolve := len(sampled.alerts) > 0
	for _, a := range sampled.alerts {
		if a.Link.Trace == 0 || len(sampled.c.Journal().Trace(a.Link.Trace)) == 0 {
			alertLinksResolve = false
		}
	}
	reproducible := bytes.Equal(sampled.ndjson, replay.ndjson) &&
		bytes.Equal(sampled.insightJSON, replay.insightJSON)

	res := &Result{ID: "telem"}
	row := func(mode string, o *telemOutcome) []string {
		return []string{
			mode,
			fmt.Sprintf("%d", o.successes+o.failures),
			fmt.Sprintf("%d", o.failures),
			fmt.Sprintf("%d", o.c.Journal().Len()),
			fmt.Sprintf("%d", len(o.ndjson)),
			fmt.Sprintf("%d/%d", o.stats.KeptTraces, o.stats.DecidedTraces),
			fmt.Sprintf("%d", o.stats.DroppedBytes),
		}
	}
	res.Tables = append(res.Tables, Table{
		ID:     "telem",
		Title:  fmt.Sprintf("Telemetry plane: tail sampling over the exposed storm (seed %d, %d invocations, keep rate %.0f%%)", chaosSeed, chaosInvocations, telemKeepRate*100),
		Header: []string{"mode", "requests", "failed", "journal events", "export bytes", "traces kept", "bytes dropped"},
		Rows: [][]string{
			row("full fidelity", full),
			row("tail-sampled", sampled),
		},
		Notes: []string{
			"same seed, same storm: the arms differ only in the sampler",
			"errors, injected faults, DLQ runs, and latency outliers are always kept; the rest keep probabilistically",
		},
	})
	res.Checks = append(res.Checks,
		Check{
			Name:     "journal export shrinks at least 5x",
			Expected: ">= 5.0x fewer bytes",
			Measured: fmt.Sprintf("%.1fx (%d -> %d bytes)", reduction, len(full.ndjson), len(sampled.ndjson)),
			Pass:     reduction >= 5.0,
		},
		Check{
			Name:     "every error trace survives sampling",
			Expected: "100% retention",
			Measured: fmt.Sprintf("%d/%d", errKept, errTotal),
			Pass:     errTotal > 0 && errKept == errTotal,
		},
		Check{
			Name:     "every fault-carrying trace survives sampling",
			Expected: "100% retention",
			Measured: fmt.Sprintf("%d/%d", faultKept, faultTotal),
			Pass:     faultTotal > 0 && faultKept == faultTotal,
		},
		Check{
			Name:     "every workflow DLQ trace survives sampling",
			Expected: "100% retention",
			Measured: fmt.Sprintf("%d/%d", dlqKept, dlqTotal),
			Pass:     dlqTotal > 0 && dlqKept == dlqTotal,
		},
		Check{
			Name:     "SLO alert links resolve through the sampled journal",
			Expected: "every alert's trace resolvable",
			Measured: fmt.Sprintf("%d alerts", len(sampled.alerts)),
			Pass:     alertLinksResolve,
		},
		Check{
			Name:     "fixed seed reproduces the sampled exports",
			Expected: "byte-identical NDJSON + insight JSON",
			Measured: map[bool]string{true: "identical", false: "DIVERGED"}[reproducible],
			Pass:     reproducible,
		},
		Check{
			Name:     "insight report annotates its coverage",
			Expected: `"coverage" with kept/total`,
			Measured: fmt.Sprintf("kept %d of %d traces", sampled.stats.KeptTraces, sampled.stats.DecidedTraces),
			Pass:     bytes.Contains(sampled.insightJSON, []byte(`"coverage"`)) && sampled.stats.DecidedTraces > sampled.stats.KeptTraces,
		},
	)
	res.Artifacts = append(res.Artifacts,
		Artifact{Name: "telem-sampled.ndjson", Contents: sampled.ndjson},
		Artifact{Name: "telem-insight.json", Contents: sampled.insightJSON},
	)
	return res, nil
}
