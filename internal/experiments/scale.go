package experiments

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/workloads"
)

// Multi-host extension experiment: the paper's evaluation is a single
// machine (its own related work targets fleet-scale serverless).
// RunScale repeats the Figure 10 consolidation methodology across a
// cluster of smaller hosts and checks that swap-aware least-memory
// placement scales total capacity linearly with node count — the
// elastic-provisioning property Figure 1's controller tier promises.

// scaleHostBytes keeps per-node sweeps short (16 GiB nodes ≈ 70
// Fireworks microVMs each).
const scaleHostBytes = 16 << 30

// scaleSustainedDirty matches the Fig. 10 long-running dirty model.
const scaleSustainedDirty = fireworksSustainedDirtyBytes

// RunScale is registered as experiment id "scale".
func RunScale() (*Result, error) {
	res := &Result{}
	w := workloads.Fact(runtime.LangNode)
	params := platform.MustParams(lightFactParams)

	capacityOf := func(nodes int) (int, error) {
		c := cluster.New(nodes, cluster.LeastMemory,
			platform.EnvConfig{MemBytes: scaleHostBytes},
			func(env *platform.Env) platform.Platform {
				return core.New(env, core.Options{RetainInstances: true})
			})
		if err := c.Install(w.Function); err != nil {
			return 0, err
		}
		launched := 0
		for launched < nodes*fig10MaxVMs {
			inv, node, err := c.Invoke(w.Name, params, platform.InvokeOptions{})
			if err != nil {
				if errors.Is(err, cluster.ErrClusterFull) {
					break
				}
				return 0, err
			}
			_ = inv
			fw := node.Platform.(*core.Framework)
			instances := fw.Instances(w.Name)
			instances[len(instances)-1].SustainDirty(scaleSustainedDirty)
			launched++
		}
		return launched, nil
	}

	t := Table{
		ID:     "scale",
		Title:  "Extension: cluster consolidation capacity (16 GiB nodes, least-memory placement)",
		Header: []string{"Nodes", "Max microVMs before cluster-full", "Per-node", "Scaling vs 1 node"},
	}
	capacities := make(map[int]int)
	nodeCounts := []int{1, 2, 4}
	for _, n := range nodeCounts {
		capVMs, err := capacityOf(n)
		if err != nil {
			return nil, err
		}
		capacities[n] = capVMs
		scaling := float64(capVMs) / float64(capacities[1])
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), fmt.Sprintf("%d", capVMs),
			fmt.Sprintf("%.1f", float64(capVMs)/float64(n)),
			fmt.Sprintf("%.2fx", scaling),
		})
	}
	res.Tables = append(res.Tables, t)

	lin4 := float64(capacities[4]) / float64(capacities[1])
	res.Checks = append(res.Checks,
		Check{
			Name:     "capacity scales linearly with nodes",
			Expected: "4 nodes ≈ 4x one node",
			Measured: fmt.Sprintf("%.2fx", lin4),
			Pass:     lin4 > 3.7 && lin4 < 4.3,
		},
		Check{
			Name:     "swap-aware placement fills every node",
			Expected: "no node left idle",
			Measured: fmt.Sprintf("%d VMs on 4 nodes", capacities[4]),
			Pass:     capacities[4] >= 4*(capacities[1]-2),
		},
	)
	return res, nil
}
