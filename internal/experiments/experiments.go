// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated stack. Each experiment returns
// rendered tables plus shape checks — the paper's reported claim next to
// the measured value — which EXPERIMENTS.md records.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/mem"
	"repro/internal/platform"
)

// Table is one rendered result table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Check compares a paper claim against the measured value.
type Check struct {
	Name     string
	Expected string
	Measured string
	Pass     bool
}

// Result is the output of one experiment.
type Result struct {
	Tables []Table
	Checks []Check
}

// MemoryReporter is implemented by platforms that expose the address
// spaces of their live sandboxes (for PSS measurements).
type MemoryReporter interface {
	Spaces(name string) []*mem.Space
}

// Experiment is a runnable reproduction of one table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Result, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table 1: design comparison of serverless platforms", RunTable1},
		{"table2", "Table 2: tested serverless applications", RunTable2},
		{"snaptime", "§5.1: post-JIT snapshot creation time", RunSnapshotTime},
		{"fig6", "Figure 6: Node.js FaaSdom latency breakdown", RunFig6},
		{"fig7", "Figure 7: Python FaaSdom latency breakdown", RunFig7},
		{"fig9", "Figure 9: real-world applications (Alexa, data analysis)", RunFig9},
		{"fig10", "Figure 10: memory usage vs number of microVMs", RunFig10},
		{"fig11", "Figure 11: performance impact of Fireworks optimizations", RunFig11},
		{"fig12", "Figure 12: memory impact of Fireworks optimizations", RunFig12},
		// Extensions beyond the paper's figures (see DESIGN.md §5).
		{"wild", "Extension: warm pools vs snapshots on a Serverless-in-the-Wild trace (§2)", RunWild},
		{"reap", "Ablation: REAP-style record-and-replay restore prefetch + dedup capacity (§7)", RunAblationREAP},
		{"snapbudget", "Ablation: bounded snapshot store with LRU replacement + remote storage (§6)", RunAblationSnapBudget},
		{"deopt", "Ablation: de-optimization under mismatched argument types (§6)", RunDeopt},
		{"scale", "Extension: cluster-wide consolidation capacity scaling", RunScale},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(ids, ", "))
}

// Render pretty-prints a result as aligned ASCII tables.
func (r *Result) Render() string {
	var sb strings.Builder
	for _, t := range r.Tables {
		sb.WriteString(renderTable(&t))
		sb.WriteByte('\n')
	}
	if len(r.Checks) > 0 {
		sb.WriteString("Shape checks (paper vs measured):\n")
		for _, c := range r.Checks {
			status := "ok  "
			if !c.Pass {
				status = "WARN"
			}
			fmt.Fprintf(&sb, "  [%s] %-42s paper: %-28s measured: %s\n", status, c.Name, c.Expected, c.Measured)
		}
	}
	return sb.String()
}

func renderTable(t *Table) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	var rule []string
	for _, w := range widths {
		rule = append(rule, strings.Repeat("-", w))
	}
	writeRow(rule)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// fmtDur renders a duration rounded for table display.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.0fµs", float64(d.Nanoseconds())/1000)
	}
}

// ratioCheck builds a Check comparing a measured ratio to an expected
// one within tolerance (relative).
func ratioCheck(name string, expected, measured, tolerance float64) Check {
	pass := measured >= expected*(1-tolerance) && measured <= expected*(1+tolerance)
	return Check{
		Name:     name,
		Expected: fmt.Sprintf("%.1fx", expected),
		Measured: fmt.Sprintf("%.1fx", measured),
		Pass:     pass,
	}
}

// atLeastCheck passes when measured >= floor.
func atLeastCheck(name string, floorVal, measured float64, paperClaim string) Check {
	return Check{
		Name:     name,
		Expected: paperClaim,
		Measured: fmt.Sprintf("%.1fx", measured),
		Pass:     measured >= floorVal,
	}
}

// newEnv builds a fresh host environment for one measurement so warm
// pools and databases never leak across configurations.
func newEnv() *platform.Env {
	return platform.NewEnv(platform.EnvConfig{})
}
