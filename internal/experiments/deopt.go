package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/stats"
)

// §6 ablation: de-optimization of JITted code. The snapshot's machine
// code is specialized (with type guards) for the argument types seen
// during install-time priming; an invocation with differently typed
// arguments trips the guards and falls back to the interpreter for that
// call. The paper argues this worst case still wins overall ("our
// evaluation results always show a performance improvement"); this
// experiment quantifies it.

// deoptSource computes over params.n whose type varies per request: the
// priming input is an int, adversarial requests send the number as a
// string, changing compute("..."), the hot function's argument type.
const deoptSource = `
func compute(n) {
  // Accept int or numeric string — a typical dynamic-language handler.
  let v = int(n);
  let total = 0;
  let i = 0;
  while (i < 40000) {
    total = total + (v + i) % 97;
    i = i + 1;
  }
  return total;
}

func main(params) {
  return compute(params.n);
}
`

// RunDeopt is registered as experiment id "deopt".
func RunDeopt() (*Result, error) {
	res := &Result{}

	env := newEnv()
	fw := core.New(env, core.Options{})
	if _, err := fw.Install(platform.Function{
		Name:          "poly",
		Source:        deoptSource,
		Lang:          runtime.LangNode,
		DefaultParams: map[string]any{"n": 12345}, // primes + JITs with an int
	}); err != nil {
		return nil, err
	}

	measure := func(params map[string]any) (time.Duration, time.Duration, error) {
		inv, err := fw.Invoke("poly", platform.MustParams(params), platform.InvokeOptions{})
		if err != nil {
			return 0, 0, err
		}
		return inv.Breakdown.Exec(), inv.Breakdown.Total(), nil
	}

	matchedExec, matchedTotal, err := measure(map[string]any{"n": 54321})
	if err != nil {
		return nil, err
	}
	// The adversarial request: same value, delivered as a string — the
	// entry type guard on main/compute fails and the call de-optimizes.
	deoptExec, deoptTotal, err := measure(map[string]any{"n": "54321"})
	if err != nil {
		return nil, err
	}

	// Baseline: the same adversarial request on a cold OpenWhisk
	// container (what the platform comparison looks like even in the
	// JIT's worst case).
	owEnv := newEnv()
	ow := platform.NewOpenWhisk(owEnv)
	if _, err := ow.Install(platform.Function{Name: "poly", Source: deoptSource, Lang: runtime.LangNode}); err != nil {
		return nil, err
	}
	owInv, err := ow.Invoke("poly", platform.MustParams(map[string]any{"n": "54321"}),
		platform.InvokeOptions{Mode: platform.ModeCold})
	if err != nil {
		return nil, err
	}

	t := Table{
		ID:     "deopt",
		Title:  "Ablation (§6): de-optimization when argument types differ from the priming profile",
		Header: []string{"Request", "Exec", "End-to-end"},
		Notes: []string{
			"snapshot primed and JITted with integer params; the string request trips the type guards",
		},
	}
	t.Rows = append(t.Rows,
		[]string{"fireworks, matching types (JITted)", fmtDur(matchedExec), fmtDur(matchedTotal)},
		[]string{"fireworks, mismatched types (deopt)", fmtDur(deoptExec), fmtDur(deoptTotal)},
		[]string{"openwhisk cold, mismatched types", fmtDur(owInv.Breakdown.Exec()), fmtDur(owInv.Breakdown.Total())},
	)
	res.Tables = append(res.Tables, t)

	res.Checks = append(res.Checks,
		Check{
			Name:     "guard failure slows the de-optimized call",
			Expected: "performance may decrease temporarily (§6)",
			Measured: fmt.Sprintf("%.1fx slower exec than JITted", float64(deoptExec)/float64(matchedExec)),
			Pass:     deoptExec > matchedExec,
		},
		Check{
			Name:     "Fireworks still wins end-to-end under deopt",
			Expected: "results always show a performance improvement (§6)",
			Measured: stats.FormatSpeedup(stats.Speedup(owInv.Breakdown.Total(), deoptTotal)),
			Pass:     deoptTotal < owInv.Breakdown.Total(),
		},
	)
	return res, nil
}
