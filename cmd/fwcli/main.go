// Command fwcli installs and invokes a FaaSLang serverless function on
// any of the simulated platforms, printing the latency breakdown — a
// one-shot tool for exploring how the same function behaves across
// sandboxes.
//
// Usage:
//
//	fwcli -file fn.fl -lang nodejs -params '{"n": 42}'
//	fwcli -file fn.fl -platform openwhisk -mode cold -repeat 3
//	fwcli -builtin faas-fact-python -platform firecracker -mode cold
//	fwcli -builtin faas-fact-python -repeat 5 -metrics text
//	fwcli -builtin faas-fact-python -trace-dump trace.json
//	fwcli -builtin faas-fact-python -repeat 5 -watch
//	fwcli -builtin faas-fact-python -repeat 5 -insight
//	fwcli -list-builtins
//
// With -watch each invocation additionally prints a one-line memory
// telemetry sample (host resident bytes, CoW faults so far, live VMs,
// sharing efficiency) on the run's virtual timeline, and the run ends
// with the smem-style per-VM memory report plus the snapshot page
// lineage (see docs/memory.md). -timeseries-dump writes the sampled
// series as CSV for offline plotting.
//
// -insight analyzes the run's event journal after the last invocation
// and prints each trace's critical-path blame table plus the service
// graph (see docs/insight.md).
//
// -telem arms tail-based trace sampling on the run's journal
// (docs/telemetry.md): boring traces are dropped at the given keep
// rate, errors and latency outliers always survive, and the run ends
// with the keep/drop ledger. -trace-dump and -insight then see the
// sampled journal:
//
//	fwcli -builtin faas-fact-python -repeat 20 -telem seed=1,rate=0.1 -insight
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/insight"
	"repro/internal/platform"
	rt "repro/internal/runtime"
	"repro/internal/telemetry"
	"repro/internal/timeseries"
	"repro/internal/vclock"
	"repro/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fwcli:", err)
		os.Exit(1)
	}
}

// run is fwcli on args (without the program name), printing to stdout.
func run(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("fwcli", flag.ExitOnError)
	file := flags.String("file", "", "FaaSLang source file of the function")
	builtin := flags.String("builtin", "", "use a built-in workload by name (see -list-builtins)")
	name := flags.String("name", "fn", "function name")
	lang := flags.String("lang", "nodejs", "runtime: nodejs or python")
	params := flags.String("params", "{}", "invocation parameters (JSON object)")
	platformName := flags.String("platform", "fireworks", "fireworks, openwhisk, gvisor, firecracker, firecracker+os-snapshot")
	mode := flags.String("mode", "auto", "start mode: auto, cold, warm")
	repeat := flags.Int("repeat", 1, "number of invocations")
	listBuiltins := flags.Bool("list-builtins", false, "list built-in workloads and exit")
	verbose := flags.Bool("v", false, "print each invocation's ledger: virtual time per (phase, label)")
	metricsFmt := flags.String("metrics", "", `dump the host metrics snapshot after the run ("text" or "json")`)
	traceDump := flags.String("trace-dump", "", `write the run's event journal to this file (Chrome trace-event JSON for *.json, NDJSON otherwise)`)
	watch := flags.Bool("watch", false, "print a memory-telemetry line per invocation and the smem-style memory report after the run")
	tsDump := flags.String("timeseries-dump", "", "write the run's sampled telemetry series to this file as CSV")
	insightFlag := flags.Bool("insight", false, "print the run's critical-path blame tables and service graph after the last invocation")
	telemSpec := flags.String("telem", "", `arm tail-based trace sampling on the run's journal: "seed=N,rate=P" (docs/telemetry.md); dumps and -insight see the sampled journal and the run ends with the keep/drop ledger`)
	_ = flags.Parse(args) // ExitOnError: a bad flag exits

	if *listBuiltins {
		for _, w := range workloads.All() {
			fmt.Fprintf(stdout, "%-24s %-16s %s\n", w.Name, w.Suite, w.Description)
		}
		return nil
	}

	fn, err := resolveFunction(*file, *builtin, *name, *lang)
	if err != nil {
		return err
	}
	env := platform.NewEnv(platform.EnvConfig{})
	p, err := resolvePlatform(*platformName, env)
	if err != nil {
		return err
	}
	tail, err := armTelemetry(*telemSpec, env)
	if err != nil {
		return err
	}
	startMode, err := resolveMode(*mode)
	if err != nil {
		return err
	}

	report, err := p.Install(fn)
	if err != nil {
		return fmt.Errorf("install: %w", err)
	}
	fmt.Fprintf(stdout, "installed %q on %s", fn.Name, p.PlatformName())
	if report.Duration > 0 {
		fmt.Fprintf(stdout, " in %v (snapshot %.0f MiB)", report.Duration, float64(report.SnapshotBytes)/(1<<20))
	}
	fmt.Fprintln(stdout)

	paramValue, err := rt.DecodeJSON([]byte(*params))
	if err != nil {
		return fmt.Errorf("params: %w", err)
	}
	// The watch timeline: one sample per invocation, advanced by each
	// request's virtual latency, so the dumped series is a pure function
	// of the workload.
	var sampler *timeseries.Sampler
	timeline := vclock.New()
	if *watch || *tsDump != "" {
		sampler = timeseries.NewSampler(env.Metrics, timeseries.DefaultCapacity)
		sampler.AddProbe("mem_sharing_efficiency", func() float64 {
			rep := env.Mem.Report()
			if rep.UsedBytes == 0 {
				return 1
			}
			return float64(rep.RSSSumBytes) / float64(rep.UsedBytes)
		})
		sampler.Sample(0)
	}
	for i := 0; i < *repeat; i++ {
		inv, err := p.Invoke(fn.Name, paramValue, platform.InvokeOptions{Mode: startMode})
		if err != nil {
			return fmt.Errorf("invoke: %w", err)
		}
		fmt.Fprintf(stdout, "#%d [%s] start-up=%v exec=%v others=%v total=%v\n",
			i+1, inv.Mode, inv.Breakdown.Startup(), inv.Breakdown.Exec(),
			inv.Breakdown.Others(), inv.Breakdown.Total())
		if sampler != nil {
			now := timeline.Advance(inv.Breakdown.Total())
			sampler.Sample(now)
			if *watch {
				rep := env.Mem.Report()
				fmt.Fprintf(stdout, "   mem: used=%.1fMiB pss-sum=%.1fMiB cow-faults=%s live-vms=%s sharing=%.2f swapping=%v\n",
					float64(rep.UsedBytes)/(1<<20), rep.PSSSumBytes/(1<<20),
					lastValue(sampler, "mem_cow_faults_total"),
					lastValue(sampler, "vmm_live_vms"),
					rep.SharingEfficiency, rep.Swapping)
			}
		}
		if inv.Response != nil {
			fmt.Fprintf(stdout, "   HTTP %d: %s\n", inv.Response.Status, inv.Response.Body)
		}
		if inv.Logs != "" {
			fmt.Fprintf(stdout, "   logs: %s", inv.Logs)
		}
		if *verbose {
			for _, e := range inv.Clock.Ledger() {
				fmt.Fprintf(stdout, "   %-10s %-18s %v\n", e.Phase, e.Label, e.Total)
			}
		}
	}
	// Drain the tail sampler before anything reads the journal, so the
	// dumps and -insight both see the sampled view.
	if tail != nil {
		tail.FlushAll()
		printTelemetry(stdout, tail.Stats())
	}
	if *watch {
		fmt.Fprintln(stdout)
		env.Mem.Report().WriteText(stdout)
	}
	if *tsDump != "" {
		if err := dumpTimeseries(*tsDump, sampler); err != nil {
			return err
		}
	}
	if *metricsFmt != "" {
		if err := env.Metrics.WriteFormat(stdout, *metricsFmt); err != nil {
			return err
		}
	}
	if *traceDump != "" {
		if err := events.WriteFile(*traceDump, env.Events.Events()); err != nil {
			return fmt.Errorf("-trace-dump: %w", err)
		}
	}
	if *insightFlag {
		return printInsight(stdout, env.Events.Events(), tail)
	}
	return nil
}

// armTelemetry parses the -telem spec and attaches a tail sampler to
// the run's journal. An empty spec leaves sampling off.
func armTelemetry(spec string, env *platform.Env) (*telemetry.TailSampler, error) {
	cfg, err := telemetry.ParseSpec(spec)
	if cfg == nil {
		return nil, err
	}
	tail := telemetry.New(*cfg)
	tail.Attach(env.Events, env.Metrics)
	return tail, nil
}

// printTelemetry renders the tail sampler's keep/drop ledger.
func printTelemetry(stdout io.Writer, st telemetry.Stats) {
	fmt.Fprintf(stdout, "\ntelemetry: kept %d/%d traces, dropped %d events (%d bytes)\n",
		st.KeptTraces, st.DecidedTraces, st.DroppedEvents, st.DroppedBytes)
	for _, p := range st.Policies {
		fmt.Fprintf(stdout, "   %-14s kept=%-4d dropped=%d\n", p.Policy, p.Kept, p.Dropped)
	}
}

// printInsight analyzes the run's journal and prints each trace's
// blame table plus the service graph in DOT. With tail sampling armed
// the journal is partial; the header says by how much.
func printInsight(stdout io.Writer, evs []events.Event, tail *telemetry.TailSampler) error {
	rep := insight.Analyze(evs)
	if tail != nil {
		st := tail.Stats()
		rep.AnnotateCoverage(int(st.KeptTraces), int(st.DecidedTraces))
	}
	fmt.Fprintf(stdout, "\ninsight: %d events, %d traces\n", rep.EventCount, rep.TraceCount)
	if rep.Coverage != nil {
		fmt.Fprintf(stdout, "coverage: %d/%d traces kept by tail sampling\n",
			rep.Coverage.KeptTraces, rep.Coverage.TotalTraces)
	}
	for _, ti := range rep.Traces {
		fmt.Fprintf(stdout, "trace %d (%s) total=%v spans=%d", ti.Trace, ti.Root, ti.Total, ti.Spans)
		if ti.Faults > 0 {
			fmt.Fprintf(stdout, " faults=%d", ti.Faults)
		}
		if ti.Errors > 0 {
			fmt.Fprintf(stdout, " errors=%d", ti.Errors)
		}
		fmt.Fprintln(stdout)
		for _, b := range ti.Blame {
			fmt.Fprintf(stdout, "   %-28s self=%-12v total=%-12v share=%d.%d%%",
				b.Site, b.Self, b.Total, b.ShareMilli/10, b.ShareMilli%10)
			if b.Faults > 0 {
				fmt.Fprintf(stdout, " faults=%d", b.Faults)
			}
			fmt.Fprintln(stdout)
		}
	}
	fmt.Fprintln(stdout)
	if err := rep.Graph.WriteDOT(stdout); err != nil {
		return fmt.Errorf("-insight: %w", err)
	}
	return nil
}

// lastValue renders a series' newest sample for the -watch line.
func lastValue(s *timeseries.Sampler, name string) string {
	p, ok := s.Last(name)
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.0f", p.Value)
}

// dumpTimeseries writes the run's sampled series to path as CSV.
func dumpTimeseries(path string, s *timeseries.Sampler) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-timeseries-dump: %w", err)
	}
	if err := s.WriteCSV(f); err != nil {
		f.Close()
		return fmt.Errorf("-timeseries-dump: %w", err)
	}
	return f.Close()
}

func resolveFunction(file, builtin, name, lang string) (platform.Function, error) {
	if builtin != "" {
		for _, w := range workloads.All() {
			if w.Name == builtin {
				return w.Function, nil
			}
		}
		return platform.Function{}, fmt.Errorf("unknown builtin %q (try -list-builtins)", builtin)
	}
	if file == "" {
		return platform.Function{}, fmt.Errorf("one of -file or -builtin is required")
	}
	src, err := os.ReadFile(file)
	if err != nil {
		return platform.Function{}, err
	}
	l := rt.Lang(lang)
	if l != rt.LangNode && l != rt.LangPython {
		return platform.Function{}, fmt.Errorf("unknown language %q", lang)
	}
	return platform.Function{Name: name, Source: string(src), Lang: l}, nil
}

func resolvePlatform(name string, env *platform.Env) (platform.Platform, error) {
	switch name {
	case "fireworks":
		return core.New(env, core.Options{}), nil
	case "openwhisk":
		return platform.NewOpenWhisk(env), nil
	case "gvisor":
		return platform.NewGVisor(env), nil
	case "firecracker":
		return platform.NewFirecracker(env, platform.FCNoSnapshot), nil
	case "firecracker+os-snapshot":
		return platform.NewFirecracker(env, platform.FCOSSnapshot), nil
	default:
		return nil, fmt.Errorf("unknown platform %q", name)
	}
}

func resolveMode(mode string) (platform.StartMode, error) {
	switch mode {
	case "auto":
		return platform.ModeAuto, nil
	case "cold":
		return platform.ModeCold, nil
	case "warm":
		return platform.ModeWarm, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", mode)
	}
}
