package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	want := []string{"table1", "table2", "snaptime", "fig6", "fig7", "fig9", "fig10", "fig11", "fig12",
		"wild", "reap", "snapbudget", "deopt", "scale"}
	if len(all) != len(want) {
		t.Fatalf("experiments = %d, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, all[i].ID, id)
		}
		if all[i].Title == "" || all[i].Run == nil {
			t.Errorf("%s incomplete", id)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig10")
	if err != nil || e.ID != "fig10" {
		t.Fatalf("ByID: %v %v", e, err)
	}
	if _, err := ByID("fig99"); err == nil || !strings.Contains(err.Error(), "unknown id") {
		t.Fatalf("err = %v", err)
	}
}

func TestTable1(t *testing.T) {
	res, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) != 6 {
		t.Fatalf("table1 shape: %+v", res.Tables)
	}
	out := res.Render()
	for _, want := range []string{"Fireworks", "Extreme (snapshot+JIT)", "OpenWhisk"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTable2(t *testing.T) {
	res, err := RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) < 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	out := res.Render()
	for _, want := range []string{"faas-fact", "Node.js, Python", "Alexa"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestSnapshotTimeBands(t *testing.T) {
	res, err := RunSnapshotTime()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables[0].Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Tables[0].Rows))
	}
	for _, c := range res.Checks {
		if !c.Pass {
			t.Errorf("check failed: %+v", c)
		}
	}
}

// TestFig6ShapeChecks runs the full Node.js latency grid and requires
// every paper-shape check to pass.
func TestFig6ShapeChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("full latency grid in -short mode")
	}
	res, err := RunFig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 5 { // a-d + geomean
		t.Fatalf("tables = %d", len(res.Tables))
	}
	for _, c := range res.Checks {
		if !c.Pass {
			t.Errorf("fig6 check failed: %s (paper %s, measured %s)", c.Name, c.Expected, c.Measured)
		}
	}
}

func TestFig7ShapeChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("full latency grid in -short mode")
	}
	res, err := RunFig7()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Checks {
		if !c.Pass {
			t.Errorf("fig7 check failed: %s (paper %s, measured %s)", c.Name, c.Expected, c.Measured)
		}
	}
}

func TestFig9ShapeChecks(t *testing.T) {
	res, err := RunFig9()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Checks {
		if !c.Pass {
			t.Errorf("fig9 check failed: %s (paper %s, measured %s)", c.Name, c.Expected, c.Measured)
		}
	}
}

func TestFig10Consolidation(t *testing.T) {
	if testing.Short() {
		t.Skip("consolidation sweep in -short mode")
	}
	res, err := RunFig10()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Checks {
		if !c.Pass {
			t.Errorf("fig10 check failed: %s (paper %s, measured %s)", c.Name, c.Expected, c.Measured)
		}
	}
}

func TestFig11FactorChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("factor analysis in -short mode")
	}
	res, err := RunFig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables[0].Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Tables[0].Rows))
	}
	for _, c := range res.Checks {
		if !c.Pass {
			t.Errorf("fig11 check failed: %s (paper %s, measured %s)", c.Name, c.Expected, c.Measured)
		}
	}
}

func TestFig12MemoryChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("memory factor analysis in -short mode")
	}
	res, err := RunFig12()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Checks {
		if !c.Pass {
			t.Errorf("fig12 check failed: %s (paper %s, measured %s)", c.Name, c.Expected, c.Measured)
		}
	}
}

func TestExtensionExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("extension experiments in -short mode")
	}
	for _, id := range []string{"wild", "reap", "snapbudget", "deopt", "scale"} {
		t.Run(id, func(t *testing.T) {
			exp, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			res, err := exp.Run()
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res.Checks {
				if !c.Pass {
					t.Errorf("%s check failed: %s (expected %s, measured %s)",
						id, c.Name, c.Expected, c.Measured)
				}
			}
		})
	}
}

func TestRenderAlignsColumns(t *testing.T) {
	tbl := Table{
		Title:  "T",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"wide-cell-content", "x"}},
		Notes:  []string{"a note"},
	}
	out := renderTable(&tbl)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, row, note
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[4], "note: a note") {
		t.Fatalf("note missing: %q", lines[4])
	}
}

func TestFmtDur(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{1500 * time.Millisecond, "1.50s"},
		{12 * time.Millisecond, "12.00ms"},
		{480 * time.Microsecond, "480µs"},
	}
	for _, tc := range cases {
		if got := fmtDur(tc.d); got != tc.want {
			t.Errorf("fmtDur(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

func TestCheckHelpers(t *testing.T) {
	c := ratioCheck("x", 2.0, 2.1, 0.1)
	if !c.Pass {
		t.Fatal("in-tolerance ratio failed")
	}
	c = ratioCheck("x", 2.0, 3.0, 0.1)
	if c.Pass {
		t.Fatal("out-of-tolerance ratio passed")
	}
	if !atLeastCheck("x", 2, 2.5, "claim").Pass || atLeastCheck("x", 2, 1.5, "claim").Pass {
		t.Fatal("atLeastCheck wrong")
	}
}
