package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/stats"
	"repro/internal/tracegen"
	"repro/internal/workloads"
)

// Trace-driven extension experiment: the paper's §2 motivation argues
// that warm pools cannot help the ~81.4% of functions invoked less than
// once a minute (Shahrad et al. [48]) — the sandbox either idles in
// memory past its keep-alive or the next request pays a full cold
// start. RunWild replays a production-shaped trace against (a) an
// OpenWhisk-style platform with a 10-minute keep-alive and (b)
// Fireworks, and reports cold-start rates, start-up latency, and the
// memory held by idle warm sandboxes.

// wildKeepAlive is the container keep-alive window (AWS Lambda and
// OpenWhisk both default to ~10 minutes).
const wildKeepAlive = 10 * time.Minute

// wildConfig shapes the replayed trace: 120 functions over one hour.
var wildConfig = tracegen.Config{
	Functions: 120,
	Duration:  time.Hour,
	Seed:      2022, // EuroSys '22
}

// RunWild replays the trace. Registered as experiment id "wild".
func RunWild() (*Result, error) {
	res := &Result{}
	trace := tracegen.Generate(wildConfig)
	ts := trace.Summarize()

	// Every function is the tiny netlatency handler: the experiment is
	// about start-up behaviour, not execution.
	source := workloads.NetLatency(runtime.LangNode).Source

	type classAgg struct {
		invocations int
		colds       int
		startup     time.Duration
	}
	type outcome struct {
		perClass map[tracegen.Class]*classAgg
		// residentByteMinutes integrates idle warm-sandbox memory over
		// the trace (bytes x minutes).
		residentByteMinutes float64
		snapshotDiskBytes   uint64
	}

	newOutcome := func() *outcome {
		return &outcome{perClass: map[tracegen.Class]*classAgg{
			tracegen.ClassPopular: {}, tracegen.ClassRare: {},
		}}
	}

	// --- OpenWhisk with a first-class keep-alive policy ---
	// The platform itself decides cold vs warm from the request's
	// timeline position, expiring idle containers and releasing their
	// memory; resident memory is *measured* from the host, not modeled.
	owEnv := newEnv()
	ow := platform.NewOpenWhiskKeepAlive(owEnv, wildKeepAlive)
	for _, f := range trace.Functions {
		if _, err := ow.Install(platform.Function{Name: f.Name, Source: source, Lang: runtime.LangNode}); err != nil {
			return nil, err
		}
	}
	owOut := newOutcome()
	params := platform.MustParams(nil)
	const sampleStep = 30 * time.Second
	eventIdx := 0
	for tick := sampleStep; tick <= wildConfig.Duration; tick += sampleStep {
		for eventIdx < len(trace.Events) && trace.Events[eventIdx].At <= tick {
			ev := trace.Events[eventIdx]
			eventIdx++
			inv, err := ow.Invoke(ev.Function, params, platform.InvokeOptions{At: ev.At})
			if err != nil {
				return nil, fmt.Errorf("wild openwhisk %s: %w", ev.Function, err)
			}
			agg := owOut.perClass[trace.ClassOf(ev.Function)]
			agg.invocations++
			if inv.Mode == platform.ModeCold {
				agg.colds++
			}
			agg.startup += inv.Breakdown.Startup()
		}
		// Background reaper, then a time-weighted memory sample.
		ow.ExpireIdle(tick)
		owOut.residentByteMinutes += float64(owEnv.Mem.Used()) * sampleStep.Minutes()
	}

	// --- Fireworks ---
	fwEnv := newEnv()
	fw := core.New(fwEnv, core.Options{})
	for _, f := range trace.Functions {
		if _, err := fw.Install(platform.Function{Name: f.Name, Source: source, Lang: runtime.LangNode}); err != nil {
			return nil, err
		}
	}
	fwOut := newOutcome()
	fwOut.snapshotDiskBytes = fwEnv.Snaps.UsedBytes()
	for _, ev := range trace.Events {
		inv, err := fw.Invoke(ev.Function, params, platform.InvokeOptions{})
		if err != nil {
			return nil, fmt.Errorf("wild fireworks %s: %w", ev.Function, err)
		}
		agg := fwOut.perClass[trace.ClassOf(ev.Function)]
		agg.invocations++
		agg.startup += inv.Breakdown.Startup()
		// No cold/warm distinction and no resident idle memory: the VM
		// is gone after the invocation; only the disk snapshot remains.
	}

	// --- Render ---
	t := Table{
		ID:    "wild",
		Title: "Extension (§2 motivation): 1-hour Serverless-in-the-Wild trace, 120 functions",
		Header: []string{"Platform", "Class", "Invocations", "Cold starts",
			"Cold %", "Mean start-up"},
		Notes: []string{
			fmt.Sprintf("trace: %d functions (%d popular / %d rare), %d invocations; keep-alive %v",
				ts.Functions, ts.PopularFuncs, ts.RareFuncs, ts.Events, wildKeepAlive),
			fmt.Sprintf("functions invoked >1/min: %.1f%% (paper's [48] reports 18.6%%)",
				ts.CalledMoreThanOncePerMin*100),
		},
	}
	addRows := func(name string, out *outcome) {
		for _, class := range []tracegen.Class{tracegen.ClassPopular, tracegen.ClassRare} {
			agg := out.perClass[class]
			if agg.invocations == 0 {
				continue
			}
			coldPct := 100 * float64(agg.colds) / float64(agg.invocations)
			t.Rows = append(t.Rows, []string{name, string(class),
				fmt.Sprintf("%d", agg.invocations), fmt.Sprintf("%d", agg.colds),
				fmt.Sprintf("%.1f%%", coldPct),
				fmtDur(agg.startup / time.Duration(agg.invocations))})
		}
	}
	addRows("openwhisk", owOut)
	addRows("fireworks", fwOut)
	res.Tables = append(res.Tables, t)

	memTable := Table{
		ID:     "wild-mem",
		Title:  "Idle resources held between invocations",
		Header: []string{"Platform", "Avg idle warm-pool memory", "Snapshot disk"},
	}
	owAvgResident := owOut.residentByteMinutes / wildConfig.Duration.Minutes()
	memTable.Rows = append(memTable.Rows,
		[]string{"openwhisk", stats.FormatBytes(uint64(owAvgResident)), "0 B"},
		[]string{"fireworks", "0 B", stats.FormatBytes(fwOut.snapshotDiskBytes)},
	)
	res.Tables = append(res.Tables, memTable)

	// --- Checks ---
	owRare := owOut.perClass[tracegen.ClassRare]
	owPopular := owOut.perClass[tracegen.ClassPopular]
	fwAll := fwOut.perClass[tracegen.ClassPopular].startup + fwOut.perClass[tracegen.ClassRare].startup
	fwCount := fwOut.perClass[tracegen.ClassPopular].invocations + fwOut.perClass[tracegen.ClassRare].invocations
	fwMean := fwAll / time.Duration(fwCount)
	owRareMean := owRare.startup / time.Duration(owRare.invocations)
	rareColdPct := float64(owRare.colds) / float64(owRare.invocations)
	popColdPct := float64(owPopular.colds) / float64(owPopular.invocations)

	res.Checks = append(res.Checks,
		Check{
			Name:     "rare functions mostly cold-start despite keep-alive",
			Expected: "warm pools ineffective for the 81.4% class (§2)",
			Measured: fmt.Sprintf("%.0f%% cold", rareColdPct*100),
			Pass:     rareColdPct > 0.5,
		},
		Check{
			Name:     "popular functions stay warm",
			Expected: "keep-alive works for the 18.6% class",
			Measured: fmt.Sprintf("%.1f%% cold", popColdPct*100),
			Pass:     popColdPct < 0.05,
		},
		Check{
			Name:     "Fireworks start-up vs OpenWhisk on rare functions",
			Expected: "snapshot resume beats cold starts outright",
			Measured: stats.FormatSpeedup(stats.Speedup(owRareMean, fwMean)),
			Pass:     owRareMean > 10*fwMean,
		},
		Check{
			Name:     "idle memory traded for disk",
			Expected: "warm pools hold GiBs of RAM; Fireworks holds none",
			Measured: fmt.Sprintf("%s RAM vs %s disk", stats.FormatBytes(uint64(owAvgResident)), stats.FormatBytes(fwOut.snapshotDiskBytes)),
			Pass:     owAvgResident > 1<<30 && fwOut.snapshotDiskBytes > 0,
		},
	)
	return res, nil
}
