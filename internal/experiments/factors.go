package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// RunFig11 reproduces the §5.5.1 performance factor analysis: starting
// from the Firecracker baseline (no snapshot), add (1) a VM-level OS
// snapshot, then (2) the post-JIT snapshot (= Fireworks), and report
// the end-to-end speedup each factor contributes, per benchmark and
// language.
func RunFig11() (*Result, error) {
	res := &Result{}
	t := Table{
		ID:    "fig11",
		Title: "Figure 11: performance impact of Fireworks optimizations (end-to-end, cold path)",
		Header: []string{"Benchmark", "Baseline", "+OS snapshot", "+post-JIT",
			"OS snap speedup", "post-JIT speedup (cumulative)"},
	}

	type meas struct {
		base, osSnap, postJIT time.Duration
	}
	all := make(map[string]meas)
	for _, lang := range []runtime.Lang{runtime.LangNode, runtime.LangPython} {
		for _, w := range workloads.FaaSdom(lang) {
			m := meas{}
			var err error
			if m.base, err = coldTotal(platform.NewFirecracker(newEnv(), platform.FCNoSnapshot), w); err != nil {
				return nil, err
			}
			if m.osSnap, err = coldTotal(platform.NewFirecracker(newEnv(), platform.FCOSSnapshot), w); err != nil {
				return nil, err
			}
			fwEnv := newEnv()
			fw := core.New(fwEnv, core.Options{})
			if _, err := fw.Install(w.Function); err != nil {
				return nil, err
			}
			inv, err := fw.Invoke(w.Name, platform.MustParams(w.DefaultParams), platform.InvokeOptions{})
			if err != nil {
				return nil, err
			}
			m.postJIT = inv.Breakdown.Total()
			all[w.Name] = m
			t.Rows = append(t.Rows, []string{
				w.Name, fmtDur(m.base), fmtDur(m.osSnap), fmtDur(m.postJIT),
				stats.FormatSpeedup(stats.Speedup(m.base, m.osSnap)),
				stats.FormatSpeedup(stats.Speedup(m.base, m.postJIT)),
			})
		}
	}
	res.Tables = append(res.Tables, t)

	factNode := all[workloads.NameFact+"-nodejs"]
	netNode := all[workloads.NameNetLatency+"-nodejs"]
	netPy := all[workloads.NameNetLatency+"-python"]
	factPy := all[workloads.NameFact+"-python"]
	matrixPy := all[workloads.NameMatrixMult+"-python"]

	osNetBest := max2(stats.Speedup(netNode.base, netNode.osSnap), stats.Speedup(netPy.base, netPy.osSnap))
	res.Checks = append(res.Checks,
		// The paper reports 2.3x; this stack measures higher because the
		// baseline's cold path pays the full kernel boot while the
		// OS-snapshot restore is page-cache hot (see EXPERIMENTS.md).
		atLeastCheck("OS snapshot: Node.js compute speedup",
			2.3, stats.Speedup(factNode.base, factNode.osSnap), "2.3x"),
		atLeastCheck("OS snapshot: netlatency speedup (best of langs)",
			3, osNetBest, "up to 6.1x"),
		atLeastCheck("post-JIT on top of OS snapshot: Python fact",
			2, stats.Speedup(factPy.osSnap, factPy.postJIT), "large (Numba)"),
		atLeastCheck("post-JIT on top of OS snapshot: Python matrix",
			3, stats.Speedup(matrixPy.osSnap, matrixPy.postJIT), "large (Numba)"),
		atLeastCheck("post-JIT on top of OS snapshot: Node netlatency",
			1.2, stats.Speedup(netNode.osSnap, netNode.postJIT), "significant (late JIT)"),
	)
	return res, nil
}

// coldTotal installs and cold-invokes a workload, returning end-to-end
// latency.
func coldTotal(p platform.Platform, w workloads.Workload) (time.Duration, error) {
	if _, err := p.Install(w.Function); err != nil {
		return 0, fmt.Errorf("fig11 install %s on %s: %w", w.Name, p.PlatformName(), err)
	}
	inv, err := p.Invoke(w.Name, platform.MustParams(w.DefaultParams),
		platform.InvokeOptions{Mode: platform.ModeCold})
	if err != nil {
		return 0, fmt.Errorf("fig11 invoke %s on %s: %w", w.Name, p.PlatformName(), err)
	}
	return inv.Breakdown.Total(), nil
}
