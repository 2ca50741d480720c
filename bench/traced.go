package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/insight"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// runUntraced measures a workload's end-to-end metrics against a real
// gateway process, tracing off.
func runUntraced(cfg runConfig, w *workload) (*result, error) {
	run, err := setUpGateway(cfg, w)
	if err != nil {
		return nil, err
	}
	defer run.gw.stop()
	run.measure(cfg, w)
	failed, first := failures(run.samples)
	return &result{
		Workload: w.name, Seed: cfg.seed, Ops: cfg.ops, Clients: w.clients,
		Attempted: len(run.samples), Failed: failed, Correct: failed == 0,
		Metrics: endToEnd(w, run), Notes: first,
	}, nil
}

// getJSON fetches one of the gateway's read endpoints into v.
func getJSON(t target, path string, v any) error {
	r, err := t.do(op{method: http.MethodGet, path: path})
	if err == nil {
		err = wantStatus(r, http.StatusOK)
	}
	if err == nil {
		err = json.Unmarshal(r.body, v)
	}
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// sumNamed adds up every series of a metric family: the bare name and
// each labelled variant name{...}.
func sumNamed[T any](series []T, family string, get func(T) (string, int64)) float64 {
	var total int64
	for _, s := range series {
		name, v := get(s)
		if name == family || strings.HasPrefix(name, family+"{") {
			total += v
		}
	}
	return float64(total)
}

func counter(s metrics.Snapshot, family string) float64 {
	return sumNamed(s.Counters, family, func(c metrics.CounterSnapshot) (string, int64) { return c.Name, c.Value })
}

func gauge(s metrics.Snapshot, family string) float64 {
	return sumNamed(s.Gauges, family, func(g metrics.GaugeSnapshot) (string, int64) { return g.Name, g.Value })
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

const mb = 1 << 20

// perOpCounters are the gateway's own counters reported as deltas over
// the measured phase divided by its op count: layer metric → family.
var perOpCounters = [][2]string{
	{"cluster.placements_per_op", "cluster_placements_total"},
	{"cluster.failovers_per_op", "failovers_total"},
	{"cluster.rejections_per_op", "cluster_rejections_total"},
	{"faults.retries_per_op", "retries_total"},
	{"faults.retry_exhausted_per_op", "retry_exhausted_total"},
	{"faults.injected_per_op", "faults_injected_total"},
	{"snapshot.store_hits_per_op", "snapshot_store_hits_total"},
	{"snapshot.store_misses_per_op", "snapshot_store_misses_total"},
	{"snapshot.invalidations_per_op", "snapshot_store_invalidations_total"},
	{"snapshot.evictions_per_op", "snapshot_store_evictions_total"},
	{"vmm.restores_per_op", "vmm_snapshot_restores_total"},
	{"vmm.boots_per_op", "vmm_kernel_boots_total"},
	{"vmm.snapshots_taken_per_op", "vmm_snapshots_taken_total"},
	{"mem.cow_faults_per_op", "mem_cow_faults_total"},
	{"msgbus.produced_per_op", "msgbus_produced_total"},
	{"msgbus.consumed_per_op", "msgbus_consumed_total"},
	{"workflow.steps_started_per_op", "workflow_steps_started_total"},
	{"workflow.steps_retried_per_op", "workflow_steps_retried_total"},
	{"workflow.steps_dead_per_op", "workflow_steps_dead_total"},
	{"workflow.duplicate_deliveries_per_op", "workflow_duplicate_deliveries_total"},
	{"events.recorded_per_op", "events_recorded_total"},
	{"events.dropped_per_op", "events_dropped_total"},
}

// gatewayCounts turns two /metrics scrapes (after warm-up, after the
// measured phase) into the count metrics of each layer.
func gatewayCounts(m metricSet, before, after metrics.Snapshot, ops int) {
	for _, pc := range perOpCounters {
		m.set(pc[0], (counter(after, pc[1])-counter(before, pc[1]))/float64(ops), "count")
	}
	deduped := counter(after, "snapshot_chunks_deduped_total")
	m.set("snapshot.dedup_ratio", ratio(deduped, deduped+counter(after, "snapshot_chunks_stored_total")), "ratio")
	m.set("snapshot.used_mb", gauge(after, "snapshot_store_used_bytes")/mb, "MB")
	m.set("mem.high_water_mb", gauge(after, "mem_high_water_bytes")/mb, "MB")
	m.set("workflow.dlq_depth", gauge(after, "workflow_dlq_depth"), "count")
	m.set("metrics.series", float64(len(after.Counters)+len(after.Gauges)+len(after.Histograms)), "count")
	var kept, decided float64
	for _, c := range after.Counters {
		if strings.HasPrefix(c.Name, "telemetry_traces_total{") {
			decided += float64(c.Value)
			if strings.Contains(c.Name, `decision="keep"`) {
				kept += float64(c.Value)
			}
		}
	}
	m.set("telemetry.keep_ratio", ratio(kept, decided), "ratio")
	m.set("telemetry.dropped_mb", counter(after, "telemetry_dropped_bytes_total")/mb, "MB")
}

// blameSites are the virtual-clock span sites reported per layer, as
// mean self time per analysed trace. A site is matched exactly
// ("core:exec" is not "core:execute"); one ending in ":" stands for every
// site of that component.
var blameSites = [][2]string{
	{"virt.core.vm-restore.self_ms", "core:vm-restore"},
	{"virt.core.netns-setup.self_ms", "core:netns-setup"},
	{"virt.core.exec.self_ms", "core:exec"},
	{"virt.core.topic-produce.self_ms", "core:topic-produce"},
	{"virt.workflow.self_ms", "workflow:"},
}

// virtualBlame reads the gateway's own critical-path analysis: for the
// request traces still in the journal, where the virtual milliseconds
// went, and how much of the root's total no span accounts for.
func virtualBlame(m metricSet, rep *insight.Report) {
	sums := make([]time.Duration, len(blameSites))
	var unattributed time.Duration
	n := 0
	for _, tr := range rep.Traces {
		if !strings.HasPrefix(tr.Root, "gateway:") && !strings.HasPrefix(tr.Root, "workflow:") {
			continue // install traces and other background work
		}
		n++
		rest := tr.Total
		for _, b := range tr.Blame {
			rest -= b.Self
			for i, site := range blameSites {
				if component := strings.HasSuffix(site[1], ":"); b.Site == site[1] || (component && strings.HasPrefix(b.Site, site[1])) {
					sums[i] += b.Self
				}
			}
		}
		unattributed += rest
	}
	for i, site := range blameSites {
		m.set(site[0], ratio(ms(sums[i]), float64(n)), "ms")
	}
	m.set("virt.unattributed_ms", ratio(ms(unattributed), float64(n)), "ms")
}

// virtualPercentiles reports the replies' own virtual-clock breakdowns.
func virtualPercentiles(m metricSet, w *workload, measured, setup []sample) {
	var startup, exec, others, install []float64
	total := virtTotalsMS(w, measured)
	for _, s := range ofClass(measured, w.dominant) {
		if s.virt.total > 0 {
			startup, exec = append(startup, ms(s.virt.startup)), append(exec, ms(s.virt.exec))
			others = append(others, ms(s.virt.others))
		}
	}
	for _, s := range append(ofClass(setup, classInstall), ofClass(measured, classInstall)...) {
		if s.virt.total > 0 {
			install = append(install, ms(s.virt.total))
		}
	}
	m.set("virt.lat_iqm_ms", interquartileMean(total), "ms")
	m.set("virt.lat_p50_ms", stats.Percentile(total, 50), "ms")
	m.set("virt.lat_p99_ms", stats.Percentile(total, 99), "ms")
	m.set("virt.startup_ms_p50", stats.Percentile(startup, 50), "ms")
	m.set("virt.exec_ms_p50", stats.Percentile(exec, 50), "ms")
	m.set("virt.others_ms_p50", stats.Percentile(others, 50), "ms")
	m.set("virt.install_ms_p50", stats.Percentile(install, 50), "ms")
}

// hostLayers are the spans reported as self time per median dominant op:
// layer metric → span name.
var hostLayers = [][2]string{
	{"gateway.handler.host_us", "gateway.handler"},
	{"gateway.decode.host_us", "gateway.decode"},
	{"gateway.scope.host_us", "gateway.scope"},
	{"gateway.encode.host_us", "gateway.encode"},
	{"gateway.observe.host_us", "gateway.observe"},
	{"timeseries.sample.host_us", "timeseries.sample"},
	{"timeseries.watchdog.host_us", "timeseries.watchdog"},
	{"telemetry.flush.host_us", "telemetry.flush"},
	{"workflow.self.host_us", "workflow.run"},
	{"cluster.self.host_us", "cluster.invoke"},
}

// runTraced produces the per-layer metrics. It runs the workload three
// ways, each for a share of the time budget: against a gateway process
// (for the gateway's own counters, by-class latencies and the untraced
// p50 the ledger must add up to), against the in-process mirror with a
// span at every layer boundary, and through the direct drivers.
// End-to-end metrics are never taken from here.
func runTraced(cfg runConfig, w *workload) (*result, error) {
	res := &result{Workload: w.name, Seed: cfg.seed, Trace: 1, Ops: cfg.ops, Clients: w.clients, Metrics: metricSet{}}
	m := res.Metrics
	gcfg := cfg
	gcfg.setups, gcfg.seconds = 1, cfg.seconds*0.4

	// 1. The gateway process, untraced.
	run, before, after, report, err := gatewayPhase(gcfg, w)
	if err != nil {
		return nil, err
	}
	ops := len(run.samples)
	failed, first := failures(run.samples)
	res.Attempted, res.Failed, res.Notes = ops, failed, first
	gatewayCounts(m, before, after, ops)
	virtualBlame(m, report)
	virtualPercentiles(m, w, run.samples, run.setupSamples)
	m.set("loader.fail_share", float64(failed)/float64(ops), "ratio")
	m.set("loader.lat_p99_ms", stats.Percentile(hostMS(run.samples), 99), "ms")
	m.set("gateway.install.p50_ms", stats.Percentile(hostMS(ofClass(run.samples, classInstall)), 50), "ms")
	m.set("gateway.scrape.p50_ms", stats.Percentile(hostMS(ofClass(run.samples, classScrape)), 50), "ms")

	// 2. The mirror: the same ops, in process, one span per layer call.
	rec, mir, err := mirrorPhase(cfg, w, run, res)
	if err != nil {
		return nil, err
	}
	coreInvoke := hostLedger(res, w, rec, stats.Percentile(hostMS(ofClass(run.samples, w.dominant)), 50)*1e3)
	reg := mir.c.Metrics()
	m.set("metrics.snapshot.host_us", timeMedian(20, func() { reg.Snapshot() }), "us")
	evs := mir.c.Journal().Events()
	m.set("insight.report.host_ms", timeMedian(3, func() { insight.Analyze(evs) })/1e3, "ms")
	if err := rec.writeFile(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}

	// 3. Direct drivers, on the first measured ops of the same sequence.
	domOps, domInvokes := rec.opsOf(w.dominant, "core.invoke")
	if err := directDrivers(m, w, sampleOps(w, cfg.seed, min(ops, 300)), coreInvoke, ratio(float64(domInvokes), float64(domOps))); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && m["trace.mirror_divergence"].Value == 0
	return res, nil
}

// mirrorPhase replays the ops the gateway run executed against the
// mirror, recording spans, and checks the mirror against the gateway:
// every op's virtual latency must equal what the gateway process
// answered. That is the guard against the mirror drifting from cmd/fwsim.
func mirrorPhase(cfg runConfig, w *workload, run *gatewayRun, res *result) (*recorder, *mirror, error) {
	rec := newRecorder()
	mir := newMirror(w, rec)
	seq := newSequence(w, cfg.seed)
	if _, err := prepare(mir, w, seq); err != nil {
		return nil, nil, fmt.Errorf("mirror: %w", err)
	}
	rec.on = true
	mirrored := drive(mir, seq, 1, w.warmup+len(run.samples), time.Time{})
	rec.on = false
	failed, first := failures(mirrored)
	res.Attempted, res.Failed = res.Attempted+len(mirrored), res.Failed+failed
	res.Notes = append(res.Notes, first...)
	diverged := 0
	for i, s := range mirrored {
		if s.virt != run.samples[i].virt {
			diverged++
		}
	}
	res.Notes = append(res.Notes, fmt.Sprintf("mirror check: %d of %d ops differ from the gateway on the virtual clock", diverged, len(mirrored)))
	res.Metrics.set("trace.mirror_divergence", float64(diverged)/float64(len(mirrored)), "ratio")
	return rec, mir, nil
}

// hostLedger turns the mirror's spans into the host-clock layer metrics
// and the conservation line, and returns core.invoke's time per median
// op. Layer figures are taken over the median ops (see medianBand), so
// they add up; the mirrored op's own p50 anchors gateway.http.
func hostLedger(res *result, w *workload, rec *recorder, untracedP50 float64) (coreInvoke float64) {
	m := res.Metrics
	self := rec.perOp(w.dominant, true)
	total := rec.perOp(w.dominant, false)
	band := medianBand(total["gateway.handler"])
	var ledger float64
	for _, hl := range hostLayers {
		v := bandMean(self[hl[1]], band)
		m.set(hl[0], v, "us")
		ledger += v
	}
	coreInvoke = bandMean(total["core.invoke"], band)
	m.set("core.invoke.host_us", coreInvoke, "us")
	ledger += coreInvoke
	mirrorP50 := stats.Percentile(total["gateway.handler"], 50)
	m.set("gateway.total.host_us", mirrorP50, "us")
	m.set("gateway.http.host_us", untracedP50-mirrorP50, "us")
	m.set("core.install.host_us", stats.Percentile(rec.perOp(classInstall, false)["core.install"], 50), "us")
	conservation := ratio(ledger+untracedP50-mirrorP50, untracedP50)
	m.set("trace.conservation_ratio", conservation, "ratio")
	res.Notes = append(res.Notes, fmt.Sprintf(
		"conservation: layer self times %.0f us + gateway.http %.0f us = %.0f us vs untraced p50 %.0f us (ratio %.3f, want within 10%%)",
		ledger, untracedP50-mirrorP50, ledger+untracedP50-mirrorP50, untracedP50, conservation))
	spansPerOp := float64(len(rec.spans)) / float64(len(rec.classes))
	cost := spanCostNS()
	m.set("trace.spans_per_op", spansPerOp, "count")
	m.set("trace.span_cost_ns", cost, "ns")
	m.set("trace.overhead_share", ratio(spansPerOp*cost/1e3, mirrorP50), "ratio")
	return coreInvoke
}

// directDrivers times the layers no span can reach, on the given ops,
// and closes core's ledger: core.invoke minus the guest execution
// (core.pipeline) and minus every substrate driven here (core.self). An
// op that runs several functions pays the substrates once per function.
// The drivers run on a private host after the replay, so core.self is a
// difference of two measurements and reads negative when it is below
// their noise.
func directDrivers(m metricSet, w *workload, sample []op, coreInvoke, invokesPerOp float64) error {
	calls := guestCalls(w, sample)
	progs := programs(w)
	execUS, allocs, err := langExec(calls)
	if err != nil {
		return err
	}
	compileUS, err := langCompile(installedSources(progs, sample))
	if err != nil {
		return err
	}
	cold, err := coldStartLayers(progs, calls)
	if err != nil {
		return err
	}
	busUS, err := msgbusRoundtrip(calls)
	if err != nil {
		return err
	}
	m.set("lang.exec.host_us", execUS, "us")
	m.set("lang.exec.allocs", allocs, "count")
	m.set("lang.compile.host_us", compileUS, "us")
	m.set("snapshot.restore.host_us", cold.restoreUS, "us")
	m.set("runtime.revive.host_us", cold.reviveUS, "us")
	m.set("mem.dirty.host_us", cold.dirtyUS, "us")
	m.set("vmm.stop.host_us", cold.stopUS, "us")
	m.set("msgbus.roundtrip.host_us", busUS, "us")
	m.set("core.pipeline.host_us", coreInvoke-execUS, "us")
	perInvoke := execUS + cold.restoreUS + cold.reviveUS + cold.dirtyUS + cold.stopUS + busUS
	m.set("core.self.host_us", coreInvoke-invokesPerOp*perInvoke, "us")
	return nil
}

// gatewayPhase runs the measured phase against a gateway process and
// reads the gateway's own books: /metrics after warm-up and after the
// phase, and the critical-path report of the traces in its journal.
func gatewayPhase(cfg runConfig, w *workload) (run *gatewayRun, before, after metrics.Snapshot, report *insight.Report, err error) {
	if run, err = setUpGateway(cfg, w); err != nil {
		return
	}
	defer run.gw.stop()
	if err = getJSON(run.httpBase, "/metrics?format=json", &before); err != nil {
		return
	}
	run.measure(cfg, w)
	if err = getJSON(run.httpBase, "/metrics?format=json", &after); err != nil {
		return
	}
	report = &insight.Report{}
	err = getJSON(run.httpBase, "/insight/report", report)
	return
}

// sampleOps regenerates the first n measured ops of a seed's sequence.
func sampleOps(w *workload, seed int64, n int) []op {
	seq := newSequence(w, seed)
	var ops []op
	for {
		i, o, ok := seq.take(w.warmup + n)
		if !ok {
			return ops
		}
		if i >= w.warmup {
			ops = append(ops, o)
		}
	}
}

// installedSources is every source the workload compiles: its set-up
// installs plus the versions the sampled ops deploy.
func installedSources(progs map[string]program, ops []op) []program {
	var out []program
	for _, p := range progs {
		out = append(out, p)
	}
	for _, o := range ops {
		if p, ok := installedProgram(o); ok {
			out = append(out, p)
		}
	}
	return out
}
