package main

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func sortedNames(m metricSet) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func specNames(specs []metricSpec) []string {
	names := make([]string, 0, len(specs))
	for _, s := range specs {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload for a few dozen ops against a real
// gateway process, untraced and traced: every workload starts, every
// oracle passes, the mirror agrees with the gateway, the emitted names
// are exactly BENCHMARK.json's, and two same-seed runs agree exactly on
// the virtual clock and on failures.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns gateway processes")
	}
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	for _, n := range append(specNames(spec.EndToEnd), specNames(spec.PerLayer)...) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("metric name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	var specWorkloads, ownWorkloads []string
	for _, w := range spec.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is malformed", w.Name)
		}
	}
	for _, w := range allWorkloads() {
		ownWorkloads = append(ownWorkloads, w.name)
	}
	if !slices.Equal(specWorkloads, ownWorkloads) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", specWorkloads, ownWorkloads)
	}

	dir := t.TempDir()
	fwsim := filepath.Join(dir, "fwsim")
	build := exec.Command("go", "build", "-o", fwsim, "./cmd/fwsim")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build fwsim: %v\n%s", err, out)
	}
	t.Cleanup(killAllGateways)
	cfg := runConfig{fwsim: fwsim, outDir: dir, seed: 1, ops: 50, setups: 1}
	for _, w := range allWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			plain, err := runUntraced(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runTraced(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*result{plain, traced} {
				if !r.Correct || r.Failed != 0 {
					t.Errorf("trace=%d: %d of %d ops failed, correct=%v: %v", r.Trace, r.Failed, r.Attempted, r.Correct, r.Notes)
				}
			}
			if got, want := sortedNames(plain.Metrics), specNames(spec.EndToEnd); !slices.Equal(got, want) {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json lists %v", got, want)
			}
			if got, want := sortedNames(traced.Metrics), specNames(spec.PerLayer); !slices.Equal(got, want) {
				t.Errorf("per-layer metrics %v, BENCHMARK.json lists %v", got, want)
			}
			// The traced run's gateway phase is a second same-seed run.
			if a, b := plain.Metrics["virt_lat_iqm_ms"].Value, traced.Metrics["virt.lat_iqm_ms"].Value; a != b || a == 0 {
				t.Errorf("same seed, same ops: virtual latency %v then %v", a, b)
			}
		})
	}
}

// TestOracleReferences pins the independent references to hand-checked
// values, so a wrong oracle cannot pass a wrong gateway.
func TestOracleReferences(t *testing.T) {
	// 9999991 is prime; 9999992 = 2^3 * 1249999 → 1 + 4 factors.
	if got := refFact(9999991, 2); got != 5 {
		t.Errorf("refFact(9999991, 2) = %d, want 5", got)
	}
	// n=1: a[0][0]=3, b[0][0]=7 → c[0][0]=21, counted as first and last.
	if got := refMatrix(1); got != 42 {
		t.Errorf("refMatrix(1) = %d, want 42", got)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]; median 5.5.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
