package experiments

import (
	"bytes"
	"fmt"

	"repro/internal/events"
	"repro/internal/insight"
)

// Insight experiment: replay the chaos storm (same seed, resilient
// configuration) and run the insight engine over its causal journal.
// The storm is the ideal stress test for an analytics layer: every
// trace carries a real span tree, ~1% of operations fault with known
// kinds and sites, and the whole run is deterministic on the virtual
// clock. The experiment verifies that
//
//   - critical-path blame concentrates on the stage enclosing each
//     injected latency spike (the blame table names the culprit);
//   - the slowest-K report agrees with per-trace re-analysis straight
//     from the journal (no drift between the batch and single-trace
//     paths);
//   - every histogram exemplar captured during the storm resolves back
//     to a real trace in the journal;
//   - a fixed seed reproduces the insight report and the service-graph
//     DOT byte for byte.

// insightSlowestK is the depth of the slowest-traces report checked
// against per-trace re-analysis.
const insightSlowestK = 5

// RunInsight is registered as experiment id "insight".
func RunInsight() (*Result, error) {
	st, err := runChaosOnce(true)
	if err != nil {
		return nil, err
	}
	replay, err := runChaosOnce(true)
	if err != nil {
		return nil, err
	}

	journal, reg := st.c.Journal(), st.c.Metrics()
	evs := journal.Events()
	rep := insight.Analyze(evs)
	insight.CountReport(reg, "experiment")

	var repJSON, repDOT, repMermaid bytes.Buffer
	if err := rep.WriteJSON(&repJSON); err != nil {
		return nil, err
	}
	if err := rep.Graph.WriteDOT(&repDOT); err != nil {
		return nil, err
	}
	if err := rep.Graph.WriteMermaid(&repMermaid); err != nil {
		return nil, err
	}
	replayRep := insight.Analyze(replay.c.Journal().Events())
	var replayJSON, replayDOT bytes.Buffer
	if err := replayRep.WriteJSON(&replayJSON); err != nil {
		return nil, err
	}
	if err := replayRep.Graph.WriteDOT(&replayDOT); err != nil {
		return nil, err
	}
	jsonStable := bytes.Equal(repJSON.Bytes(), replayJSON.Bytes())
	dotStable := bytes.Equal(repDOT.Bytes(), replayDOT.Bytes())

	// Blame attribution: walk the journal for latency-spike fault
	// instants, map each to the site of its enclosing span, and demand
	// that the trace's top blame row is a faulted site. A 1.5 s default
	// spike dwarfs every healthy stage, so anything else means the
	// critical-path accounting leaks time to the wrong span.
	type spanKey struct {
		trace events.TraceID
		span  events.SpanID
	}
	spanSite := map[spanKey]string{}
	spiked := map[events.TraceID]map[string]bool{}
	for _, e := range evs {
		switch e.Kind {
		case events.KindBegin:
			spanSite[spanKey{e.Trace, e.Span}] = e.Component + ":" + e.Name
		case events.KindInstant:
			if e.Component != "faults" {
				continue
			}
			latency := false
			for _, a := range e.Attrs {
				if a.Key == "kind" && a.Value == "latency" {
					latency = true
				}
			}
			if !latency {
				continue
			}
			site := spanSite[spanKey{e.Trace, e.Parent}]
			if site == "" {
				continue
			}
			if spiked[e.Trace] == nil {
				spiked[e.Trace] = map[string]bool{}
			}
			spiked[e.Trace][site] = true
		}
	}
	spikedTraces, blamedFirst := 0, 0
	for _, ti := range rep.Traces {
		sites := spiked[ti.Trace]
		if len(sites) == 0 {
			continue
		}
		spikedTraces++
		if len(ti.Blame) > 0 && (ti.Blame[0].Faults > 0 || sites[ti.Blame[0].Site]) {
			blamedFirst++
		}
	}

	// Slowest-K: the batch report's ranking must agree with analyzing
	// each trace alone from the journal.
	top := rep.Slowest(insightSlowestK)
	slowestAgree := len(top) > 0
	for _, ti := range top {
		single, ok := insight.AnalyzeTrace(journal.Trace(ti.Trace))
		if !ok || single.Total != ti.Total || len(single.Path) != len(ti.Path) ||
			len(single.Blame) != len(ti.Blame) {
			slowestAgree = false
			break
		}
	}

	// Exemplars: every trace a histogram pinned during the storm must
	// still resolve to events in the journal.
	exemplars, resolved, exemplarHists := 0, 0, 0
	for _, h := range reg.Snapshot().Histograms {
		if len(h.Exemplars) == 0 {
			continue
		}
		exemplarHists++
		for _, ex := range h.Exemplars {
			exemplars++
			if len(journal.Trace(events.TraceID(ex.Trace))) > 0 {
				resolved++
			}
		}
	}

	res := &Result{ID: "insight"}
	var slowRows [][]string
	for _, ti := range top {
		blame := "-"
		if len(ti.Blame) > 0 {
			blame = fmt.Sprintf("%s (%d.%d%%)", ti.Blame[0].Site,
				ti.Blame[0].ShareMilli/10, ti.Blame[0].ShareMilli%10)
		}
		slowRows = append(slowRows, []string{
			fmt.Sprintf("%d", uint64(ti.Trace)),
			ti.Root,
			fmtDur(ti.Total),
			fmt.Sprintf("%d", ti.Spans),
			fmt.Sprintf("%d", ti.Faults),
			blame,
		})
	}
	res.Tables = append(res.Tables, Table{
		ID:     "insight-slowest",
		Title:  fmt.Sprintf("Insight: slowest %d of %d traces under the chaos storm (seed %d)", len(top), rep.TraceCount, chaosSeed),
		Header: []string{"trace", "root", "total", "spans", "faults", "top blame (self share)"},
		Rows:   slowRows,
		Notes: []string{
			fmt.Sprintf("%d events analyzed; service graph: %d nodes, %d edges", rep.EventCount, len(rep.Graph.Nodes), len(rep.Graph.Edges)),
			"share is the site's self time over the trace total",
		},
	})
	res.Checks = append(res.Checks,
		Check{
			Name:     "blame ranks the spiked site first",
			Expected: "all latency-spiked traces",
			Measured: fmt.Sprintf("%d/%d traces", blamedFirst, spikedTraces),
			Pass:     spikedTraces > 0 && blamedFirst == spikedTraces,
		},
		Check{
			Name:     "slowest-K agrees with per-trace analysis",
			Expected: fmt.Sprintf("%d traces re-derived from the journal", insightSlowestK),
			Measured: map[bool]string{true: "identical totals, paths, blame", false: "DIVERGED"}[slowestAgree],
			Pass:     slowestAgree,
		},
		Check{
			Name:     "histogram exemplars resolve to journal traces",
			Expected: "every exemplar",
			Measured: fmt.Sprintf("%d/%d exemplars across %d histograms", resolved, exemplars, exemplarHists),
			Pass:     exemplars > 0 && resolved == exemplars,
		},
		Check{
			Name:     "fixed seed reproduces the insight report",
			Expected: "byte-identical JSON",
			Measured: map[bool]string{true: "identical", false: "DIVERGED"}[jsonStable],
			Pass:     jsonStable,
		},
		Check{
			Name:     "fixed seed reproduces the service graph",
			Expected: "byte-identical DOT",
			Measured: map[bool]string{true: "identical", false: "DIVERGED"}[dotStable],
			Pass:     dotStable,
		},
	)
	res.Artifacts = append(res.Artifacts,
		Artifact{Name: "insight-report.json", Contents: repJSON.Bytes()},
		Artifact{Name: "insight-servicegraph.dot", Contents: repDOT.Bytes()},
		Artifact{Name: "insight-servicegraph.mmd", Contents: repMermaid.Bytes()},
	)
	return res, nil
}
