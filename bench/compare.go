package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/stats"
)

// benchmarkSpec is the part of BENCHMARK.json the program itself reads:
// names, directions and regression bounds.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// spread is the distance between the first and third quartile as a share
// of the median, with quartiles as Python's statistics.quantiles(n=4)
// gives them (the rule the benchmark driver applies). Fewer than two
// values have no spread.
func spread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		if j < 1 {
			j, delta = 1, 0
		} else if j > n-1 {
			j, delta = n-1, 4
		}
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return ratio(quartile(3)-quartile(1), stats.Percentile(xs, 50))
}

// side is one results file's untraced runs of one workload.
type side []*result

func (s side) values(metric string) []float64 {
	var out []float64
	for _, r := range s {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// exact reports whether every run measured a fixed op count for one
// seed, in which case virtual-clock results and 1-client failure counts
// must repeat bit for bit.
func exact(a, b side) bool {
	var ref *result
	for _, r := range append(append(side(nil), a...), b...) {
		if ref == nil {
			ref = r
		}
		if r.Ops == 0 || r.Ops != ref.Ops || r.Seed != ref.Seed {
			return false
		}
	}
	return ref != nil
}

func failShare(s side) float64 {
	var failed, attempted int
	for _, r := range s {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

// everyBetter reports whether every b reads better than every a.
func everyBetter(a, b []float64, lowerIsBetter bool) bool {
	for _, x := range a {
		for _, y := range b {
			if (lowerIsBetter && y >= x) || (!lowerIsBetter && y <= x) {
				return false
			}
		}
	}
	return true
}

// compareFiles prints, per workload × end-to-end metric, both medians,
// the relative change and a verdict against the metric's bound:
// REGRESSED when b's median is worse than a's by more than the bound,
// UNRESOLVED when either side's own spread is wider than the bound (and
// b does not beat a on every run), PASS otherwise. It returns whether
// any line was not PASS.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	files := [2]*resultsFile{}
	for i, p := range []string{pathA, pathB} {
		if files[i], err = readResults(p); err != nil {
			return false, err
		}
	}
	pick := func(f *resultsFile, workload string) side {
		var s side
		for _, r := range f.Runs {
			if r.Workload == workload && r.Trace == 0 {
				s = append(s, r)
			}
		}
		return s
	}
	bad := false
	fmt.Fprintf(w, "%-15s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "a (median)", "b (median)", "change", "bound", "verdict")
	for _, wl := range spec.Workloads {
		a, b := pick(files[0], wl.Name), pick(files[1], wl.Name)
		if len(a) == 0 || len(b) == 0 {
			fmt.Fprintf(w, "%-15s no untraced runs on one side (a=%d b=%d): UNRESOLVED\n", wl.Name, len(a), len(b))
			bad = true
			continue
		}
		repeat := exact(a, b)
		for _, em := range spec.EndToEnd {
			va, vb := a.values(em.Name), b.values(em.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-15s %-18s n/a on one side: UNRESOLVED\n", wl.Name, em.Name)
				bad = true
				continue
			}
			ma, mb := stats.Percentile(va, 50), stats.Percentile(vb, 50)
			change := ratio(mb-ma, ma)
			lower := em.Better != "higher"
			worse := change
			if !lower {
				worse = -change
			}
			verdict := "PASS"
			switch {
			case repeat && strings.HasPrefix(em.Name, "virt_"):
				if ma != mb {
					verdict = "REGRESSED (virtual-clock results must repeat exactly)"
				}
			case (spread(va) > em.Bound || spread(vb) > em.Bound) && !everyBetter(va, vb, lower):
				verdict = fmt.Sprintf("UNRESOLVED (spread a %.1f%%, b %.1f%%)", 100*spread(va), 100*spread(vb))
			case worse > em.Bound:
				verdict = "REGRESSED"
			}
			bad = bad || verdict != "PASS"
			fmt.Fprintf(w, "%-15s %-18s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				wl.Name, em.Name, ma, mb, 100*change, 100*em.Bound, verdict)
		}
		fa, fb := failShare(a), failShare(b)
		verdict := "PASS"
		if fb > fa || (repeat && a[0].Clients == 1 && fa != fb) {
			verdict = "REGRESSED"
			bad = true
		}
		fmt.Fprintf(w, "%-15s %-18s %14.6f %14.6f %9s %7s  %s\n", wl.Name, "fail_share", fa, fb, "", "exact", verdict)
	}
	return bad, nil
}
