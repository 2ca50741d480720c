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

// cell is one bar of a latency-breakdown figure.
type cell struct {
	platform string
	mode     string // "c", "w", or "both"
	startup  time.Duration
	exec     time.Duration
	others   time.Duration
}

func (c cell) total() time.Duration { return c.startup + c.exec + c.others }

func cellFrom(platformName, mode string, inv *platform.Invocation) cell {
	return cell{
		platform: platformName,
		mode:     mode,
		startup:  inv.Breakdown.Startup(),
		exec:     inv.Breakdown.Exec(),
		others:   inv.Breakdown.Others(),
	}
}

// measureGrid runs one workload on every platform in both start modes
// (Fireworks has no cold/warm distinction), each on a fresh host
// environment so pools never leak between configurations.
func measureGrid(w workloads.Workload) ([]cell, error) {
	baselines := []struct {
		name string
		mk   func(env *platform.Env) platform.Platform
	}{
		{"openwhisk", platform.NewOpenWhisk},
		{"gvisor", platform.NewGVisor},
		{"firecracker", func(env *platform.Env) platform.Platform {
			return platform.NewFirecracker(env, platform.FCNoSnapshot)
		}},
	}
	params := platform.MustParams(w.DefaultParams)
	var cells []cell
	for _, b := range baselines {
		env := newEnv()
		p := b.mk(env)
		if _, err := p.Install(w.Function); err != nil {
			return nil, fmt.Errorf("%s install %s: %w", b.name, w.Name, err)
		}
		coldInv, err := p.Invoke(w.Name, params, platform.InvokeOptions{Mode: platform.ModeCold})
		if err != nil {
			return nil, fmt.Errorf("%s cold %s: %w", b.name, w.Name, err)
		}
		cells = append(cells, cellFrom(b.name, "c", coldInv))
		warmInv, err := p.Invoke(w.Name, params, platform.InvokeOptions{Mode: platform.ModeWarm})
		if err != nil {
			return nil, fmt.Errorf("%s warm %s: %w", b.name, w.Name, err)
		}
		cells = append(cells, cellFrom(b.name, "w", warmInv))
	}

	env := newEnv()
	fw := core.New(env, core.Options{})
	if _, err := fw.Install(w.Function); err != nil {
		return nil, fmt.Errorf("fireworks install %s: %w", w.Name, err)
	}
	inv, err := fw.Invoke(w.Name, params, platform.InvokeOptions{})
	if err != nil {
		return nil, fmt.Errorf("fireworks %s: %w", w.Name, err)
	}
	cells = append(cells, cellFrom("fireworks", "both", inv))
	return cells, nil
}

func gridTable(id, title string, cells []cell) Table {
	t := Table{
		ID:     id,
		Title:  title,
		Header: []string{"Platform", "Mode", "Start-up", "Exec", "Others", "Total"},
	}
	for _, c := range cells {
		t.Rows = append(t.Rows, []string{
			c.platform, c.mode, fmtDur(c.startup), fmtDur(c.exec), fmtDur(c.others), fmtDur(c.total()),
		})
	}
	return t
}

// find returns the cell for a platform+mode.
func find(cells []cell, platformName, mode string) cell {
	for _, c := range cells {
		if c.platform == platformName && c.mode == mode {
			return c
		}
	}
	return cell{}
}

// runLatencyFigure is the shared body of Figures 6 and 7.
func runLatencyFigure(id string, lang runtime.Lang) (*Result, error) {
	res := &Result{}
	suite := workloads.FaaSdom(lang)
	letters := []string{"a", "b", "c", "d"}
	grids := make(map[string][]cell, len(suite))
	perPlatformTotals := make(map[string][]time.Duration)

	for i, w := range suite {
		cells, err := measureGrid(w)
		if err != nil {
			return nil, err
		}
		grids[w.Name] = cells
		res.Tables = append(res.Tables, gridTable(
			fmt.Sprintf("%s%s", id, letters[i]),
			fmt.Sprintf("Figure %s(%s): %s latency breakdown", id[3:], letters[i], w.Name),
			cells))
		for _, c := range cells {
			key := c.platform + "-" + c.mode
			perPlatformTotals[key] = append(perPlatformTotals[key], c.total())
		}
	}

	// (e): geometric mean across the four benchmarks.
	geo := Table{
		ID:     id + "e",
		Title:  fmt.Sprintf("Figure %s(e): geometric mean of the four benchmarks", id[3:]),
		Header: []string{"Platform", "Mode", "Geomean total"},
	}
	order := []struct{ plat, mode string }{
		{"openwhisk", "c"}, {"openwhisk", "w"},
		{"gvisor", "c"}, {"gvisor", "w"},
		{"firecracker", "c"}, {"firecracker", "w"},
		{"fireworks", "both"},
	}
	geoTotals := make(map[string]time.Duration)
	for _, o := range order {
		key := o.plat + "-" + o.mode
		g := stats.GeoMeanDurations(perPlatformTotals[key])
		geoTotals[key] = g
		geo.Rows = append(geo.Rows, []string{o.plat, o.mode, fmtDur(g)})
	}
	res.Tables = append(res.Tables, geo)

	// Shape checks.
	fact := grids[workloads.FaaSdom(lang)[0].Name]
	disk := grids[workloads.FaaSdom(lang)[2].Name]
	net := grids[workloads.FaaSdom(lang)[3].Name]
	fw := find(fact, "fireworks", "both")
	fcCold := find(fact, "firecracker", "c")

	coldStartup := stats.Speedup(fcCold.startup, fw.startup)
	warmWorst := time.Duration(0)
	for _, p := range []string{"openwhisk", "gvisor", "firecracker"} {
		if s := find(fact, p, "w").startup; s > warmWorst {
			warmWorst = s
		}
	}
	warmStartup := stats.Speedup(warmWorst, fw.startup)
	geoVsCold := stats.Speedup(geoTotals["firecracker-c"], geoTotals["fireworks-both"])
	worstWarmGeo := geoTotals["openwhisk-w"]
	for _, key := range []string{"gvisor-w", "firecracker-w"} {
		if geoTotals[key] > worstWarmGeo {
			worstWarmGeo = geoTotals[key]
		}
	}
	geoVsWarm := stats.Speedup(worstWarmGeo, geoTotals["fireworks-both"])

	if lang == runtime.LangNode {
		res.Checks = append(res.Checks,
			atLeastCheck("fact: cold start-up vs Firecracker", 80, coldStartup, "up to 133x"),
			ratioCheck("fact: warm start-up vs slowest warm", 3.8, warmStartup, 0.5),
			atLeastCheck("fact: exec vs cold (JIT in snapshot)", 1.15,
				stats.Speedup(fcCold.exec, fw.exec), "up to 38% faster"),
			atLeastCheck("diskio: exec vs gVisor", 4,
				stats.Speedup(find(disk, "gvisor", "c").exec, find(disk, "fireworks", "both").exec),
				"up to 9.2x"),
			atLeastCheck("netlatency: cold start-up vs slowest cold", 20,
				stats.Speedup(find(net, "firecracker", "c").startup, find(net, "fireworks", "both").startup),
				"up to 25x"),
			atLeastCheck("geomean: total vs Firecracker cold", 5, geoVsCold, "up to 8.6x (vs others)"),
			atLeastCheck("geomean: total vs slowest warm", 2, geoVsWarm, "faster than every warm start"),
		)
	} else {
		mat := grids[workloads.FaaSdom(lang)[1].Name]
		res.Checks = append(res.Checks,
			atLeastCheck("fact: cold start-up vs Firecracker", 50, coldStartup, "59.8x"),
			ratioCheck("fact: warm start-up vs slowest warm", 4.4, warmStartup, 0.6),
			atLeastCheck("fact: exec vs cold (Numba in snapshot)", 10,
				stats.Speedup(fcCold.exec, fw.exec), "20x faster"),
			atLeastCheck("matrix: exec vs cold", 40,
				stats.Speedup(find(mat, "firecracker", "c").exec, find(mat, "fireworks", "both").exec),
				"up to 80x"),
			atLeastCheck("geomean: total vs Firecracker cold", 8, geoVsCold, "up to 19x (vs others)"),
			atLeastCheck("geomean: total vs slowest warm", 4, geoVsWarm, "2.2x higher gain than Node.js"),
		)
	}
	return res, nil
}

// RunFig6 regenerates the Node.js FaaSdom latency figures.
func RunFig6() (*Result, error) { return runLatencyFigure("fig6", runtime.LangNode) }

// RunFig7 regenerates the Python FaaSdom latency figures.
func RunFig7() (*Result, error) { return runLatencyFigure("fig7", runtime.LangPython) }
