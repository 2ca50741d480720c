package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/couchdb"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// alexaRequests is the §5.3 request sequence: ask for a simple fact,
// check the schedule through reminder, check appliances through smart
// home. The argument shapes differ from the install-time priming input,
// so this sequence exercises JIT de-optimization (§6).
var alexaRequests = []map[string]any{
	{"text": "alexa tell me a fun fact"},
	{"text": "remind me to review the schedule", "action": "add", "id": "rev1",
		"item": "review schedule", "place": "office", "url": "https://cal.example/rev1"},
	{"text": "what is the status of the lights and the door at home", "action": "status"},
}

// wageRecords is the data-analysis input: employee wage submissions.
var wageRecords = []map[string]any{
	{"name": "ada", "id": "e1", "role": "Engineer", "base": 72000},
	{"name": "grace", "id": "e2", "role": "Manager", "base": 95000},
	{"name": "alan", "id": "e3", "role": "Engineer", "base": 68000},
	{"name": "edsger", "id": "e4", "role": "Analyst", "base": 54000},
	{"name": "barbara", "id": "e5", "role": "Manager", "base": 120000},
}

// appResult is one platform's aggregate over an application sequence.
type appResult struct {
	startup time.Duration
	exec    time.Duration
	others  time.Duration
}

// installAll deploys a list of workloads in dependency order (callees
// before callers: AlexaSkills/DataAnalysis list callers first).
func installAll(p platform.Platform, ws []workloads.Workload) error {
	for i := len(ws) - 1; i >= 0; i-- {
		if _, err := p.Install(ws[i].Function); err != nil {
			return fmt.Errorf("install %s on %s: %w", ws[i].Name, p.PlatformName(), err)
		}
	}
	return nil
}

// runSequence invokes entry once per request and accumulates the phase
// totals. Cold starts happen naturally on the first request of each
// chain element (matching how the paper drives the apps end-to-end).
func runSequence(p platform.Platform, entry string, requests []map[string]any) (appResult, error) {
	var agg appResult
	for _, req := range requests {
		inv, err := p.Invoke(entry, platform.MustParams(req), platform.InvokeOptions{})
		if err != nil {
			return agg, fmt.Errorf("%s on %s: %w", entry, p.PlatformName(), err)
		}
		agg.startup += inv.Breakdown.Startup()
		agg.exec += inv.Breakdown.Exec()
		agg.others += inv.Breakdown.Others()
	}
	return agg, nil
}

// RunFig9 regenerates the real-world application comparison (Fireworks
// vs OpenWhisk — the only two platforms able to run function chains).
func RunFig9() (*Result, error) {
	res := &Result{}

	type config struct {
		name string
		mk   func() (*platform.Env, platform.Platform)
	}
	configs := []config{
		{"fireworks", func() (*platform.Env, platform.Platform) {
			env := newEnv()
			return env, core.New(env, core.Options{})
		}},
		{"openwhisk", func() (*platform.Env, platform.Platform) {
			env := newEnv()
			return env, platform.NewOpenWhisk(env)
		}},
	}

	// --- Figure 9(a): Alexa Skills ---
	alexa := Table{
		ID:     "fig9a",
		Title:  "Figure 9(a): Alexa Skills (fact + reminder + smart home sequence)",
		Header: []string{"Platform", "Pass", "Start-up", "Exec", "Others", "Total"},
		Notes: []string{"pass 1 hits cold containers on OpenWhisk; pass 2 is fully warm.",
			"Fireworks has no cold/warm distinction (always snapshot resume)."},
	}
	alexaResults := make(map[string]appResult) // warm pass, used for checks
	for _, cfg := range configs {
		_, p := cfg.mk()
		if err := installAll(p, workloads.AlexaSkills()); err != nil {
			return nil, err
		}
		for pass := 1; pass <= 2; pass++ {
			agg, err := runSequence(p, workloads.NameAlexaFrontend, alexaRequests)
			if err != nil {
				return nil, err
			}
			if pass == 2 {
				alexaResults[cfg.name] = agg
			}
			alexa.Rows = append(alexa.Rows, []string{cfg.name, fmt.Sprintf("%d", pass),
				fmtDur(agg.startup), fmtDur(agg.exec), fmtDur(agg.others),
				fmtDur(agg.startup + agg.exec + agg.others)})
		}
	}
	res.Tables = append(res.Tables, alexa)

	// --- Figure 9(b): data analysis ---
	da := Table{
		ID:     "fig9b",
		Title:  "Figure 9(b): Data analysis (wage insertion chain + triggered analysis chain)",
		Header: []string{"Platform", "Step", "Start-up", "Exec", "Others", "Total"},
	}
	type daResult struct{ insert, analyze appResult }
	daResults := make(map[string]daResult)
	for _, cfg := range configs {
		env, p := cfg.mk()
		if err := installAll(p, workloads.DataAnalysis()); err != nil {
			return nil, err
		}
		// The analysis chain is triggered by the database update (the
		// dashed box of Figure 8(b)): a change-feed trigger on the wages
		// database, filtered to the last insert so exactly one triggered
		// run is measured. Enqueuing a firing is free, so the insert
		// rows are unperturbed.
		eng := workflow.New(env.Bus, env.Events, env.Metrics, p, workflow.Options{})
		if err := eng.Register(&workflow.Spec{Name: "wage-analysis-chain", Steps: []workflow.Step{
			{ID: "analyze", Function: workloads.NameWageAnalyze,
				Input: map[string]any{"trigger": "db-change"}},
		}}); err != nil {
			return nil, err
		}
		eng.AddChangeFeed(env.Couch.CreateDB("wages"), "wage-analysis-chain",
			func(c couchdb.Change) bool { return c.ID == "wage-e5" }, nil)
		insert, err := runSequence(p, workloads.NameWageInsert, wageRecords)
		if err != nil {
			return nil, err
		}
		runs := eng.Drain(0)
		if len(runs) != 1 || runs[0].Status != workflow.RunCompleted {
			return nil, fmt.Errorf("fig9b on %s: change-feed trigger produced %d runs", cfg.name, len(runs))
		}
		bd := runs[0].Invocation.Breakdown
		analyze := appResult{startup: bd.Startup(), exec: bd.Exec(), others: bd.Others()}
		daResults[cfg.name] = daResult{insert: insert, analyze: analyze}
		for _, step := range []struct {
			label string
			r     appResult
		}{{"insert", insert}, {"analyze", analyze}} {
			da.Rows = append(da.Rows, []string{cfg.name, step.label,
				fmtDur(step.r.startup), fmtDur(step.r.exec), fmtDur(step.r.others),
				fmtDur(step.r.startup + step.r.exec + step.r.others)})
		}
	}
	res.Tables = append(res.Tables, da)

	fwA, owA := alexaResults["fireworks"], alexaResults["openwhisk"]
	fwD, owD := daResults["fireworks"], daResults["openwhisk"]
	res.Checks = append(res.Checks,
		// The paper's ratios fall between our cold-pass and warm-pass
		// numbers (its methodology does not pin the container state);
		// checks use the conservative warm pass for Alexa and the
		// mixed first pass for data analysis.
		atLeastCheck("Alexa: start-up vs OpenWhisk (warm pass)", 3,
			stats.Speedup(owA.startup, fwA.startup), "12.5x"),
		atLeastCheck("Alexa: exec vs OpenWhisk (warm pass)", 1.2,
			stats.Speedup(owA.exec, fwA.exec), "2.4x"),
		atLeastCheck("Data insert: start-up vs OpenWhisk", 8,
			stats.Speedup(owD.insert.startup, fwD.insert.startup), "25.6x"),
		atLeastCheck("Data insert: exec vs OpenWhisk", 1.5,
			stats.Speedup(owD.insert.exec, fwD.insert.exec), "11.8x"),
		atLeastCheck("Data analyze: start-up vs OpenWhisk", 8,
			stats.Speedup(owD.analyze.startup, fwD.analyze.startup), "27x"),
		atLeastCheck("Data analyze: exec vs OpenWhisk", 1.2,
			stats.Speedup(owD.analyze.exec, fwD.analyze.exec), "4.9x"),
	)
	return res, nil
}
