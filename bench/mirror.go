package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/insight"
	"repro/internal/lang"
	"repro/internal/metrics"
	"repro/internal/msgbus"
	"repro/internal/platform"
	rt "repro/internal/runtime"
	"repro/internal/telemetry"
	"repro/internal/timeseries"
	"repro/internal/vclock"
	"repro/internal/workflow"
)

// mirror is an in-process copy of cmd/fwsim's newServer wiring and of
// the handlers the workloads reach, built only from exported packages,
// with a span around every call a handler makes into a layer. It exists
// because fwsim's handlers are in package main and this benchmark may
// not edit them; the guard against it drifting from the real gateway is
// that its virtual-clock results must equal the gateway's exactly
// (checked op by op in runTraced).
type mirror struct {
	c        *cluster.Cluster
	wf       *workflow.Engine
	timeline *vclock.Clock
	sampler  *timeseries.Sampler
	watchdog *timeseries.Watchdog
	requests *metrics.Counter
	failures *metrics.Counter
	tail     *telemetry.TailSampler
	rec      *recorder
}

// tracedPlatform is the decorator at the cluster → core seam.
type tracedPlatform struct {
	platform.Platform
	rec *recorder
}

func (p tracedPlatform) Invoke(name string, params lang.Value, opts platform.InvokeOptions) (*platform.Invocation, error) {
	p.rec.begin("core.invoke")
	defer p.rec.end()
	return p.Platform.Invoke(name, params, opts)
}

func (p tracedPlatform) Install(fn platform.Function) (*platform.InstallReport, error) {
	p.rec.begin("core.install")
	defer p.rec.end()
	return p.Platform.Install(fn)
}

// tracedInvoker is the decorator at the workflow → cluster seam.
type tracedInvoker struct {
	c   *cluster.Cluster
	rec *recorder
}

func (ti tracedInvoker) Invoke(name string, params lang.Value, opts platform.InvokeOptions) (*platform.Invocation, error) {
	ti.rec.begin("cluster.invoke")
	defer ti.rec.end()
	inv, _, err := ti.c.Invoke(name, params, opts)
	return inv, err
}

// newMirror follows newServer line by line; the workload's fault and
// telemetry settings are the gateway flags it runs with.
func newMirror(w *workload, rec *recorder) *mirror {
	envCfg := platform.EnvConfig{}
	opts := core.Options{}
	chaos := w.faultRate > 0
	if chaos {
		envCfg.Faults = faults.DefaultPlan(w.faultSeed, w.faultRate)
		opts.Retry = faults.DefaultRetryPolicy()
	}
	c := cluster.New(nodes, cluster.LeastInflight, envCfg,
		func(env *platform.Env) platform.Platform {
			return tracedPlatform{Platform: core.New(env, opts), rec: rec}
		})
	if chaos {
		c.SetFailover(cluster.FailoverPolicy{MaxFailovers: 2})
	}
	m := &mirror{
		c: c, rec: rec, timeline: vclock.New(),
		requests: c.Metrics().Counter("gateway_requests_total"),
		failures: c.Metrics().Counter("gateway_failures_total"),
	}
	wfBus := msgbus.NewBroker()
	wfBus.Instrument(c.Metrics())
	wfOpts := workflow.Options{}
	if chaos {
		wfBus.AttachFaults(envCfg.Faults)
		wfOpts.Retry = faults.DefaultRetryPolicy()
	}
	m.wf = workflow.New(wfBus, c.Journal(), c.Metrics(), tracedInvoker{c: c, rec: rec}, wfOpts)
	m.sampler = timeseries.NewSampler(c.Metrics(), timeseries.DefaultCapacity)
	if w.telemRate > 0 {
		m.tail = telemetry.New(telemetry.Config{Seed: w.telemSeed, KeepRate: w.telemRate})
		m.tail.Attach(c.Journal(), c.Metrics())
		m.sampler.SetRollups(timeseries.DefaultRollups())
	}
	m.sampler.AddProbe("fleet_down_nodes", func() float64 {
		return float64(platform.DeriveFleetHealth(c.Metrics().Snapshot()).Down)
	})
	m.sampler.AddProbe("mem_sharing_efficiency", func() float64 {
		var rss, used float64
		for _, n := range c.Nodes() {
			rep := n.Env.Mem.Report()
			rss += float64(rep.RSSSumBytes)
			used += float64(rep.UsedBytes)
		}
		if used == 0 {
			return 1
		}
		return rss / used
	})
	m.watchdog = timeseries.NewWatchdog(m.sampler, c.Journal(), c.Metrics())
	m.watchdog.AddRule(timeseries.Rule{
		Name:      "invoke-success-rate",
		Ratio:     &timeseries.RatioSource{Num: "gateway_failures_total", Den: "gateway_requests_total", Complement: true, MinDen: 20},
		Op:        timeseries.AtLeast,
		Threshold: 0.99,
	})
	m.watchdog.AddRule(timeseries.Rule{
		Name:      "invoke-p99-latency",
		Value:     &timeseries.ValueSource{Series: metrics.Name("invoke_latency", "platform", "fireworks") + ".p99"},
		Op:        timeseries.AtMost,
		Threshold: float64(2 * time.Second),
	})
	m.watchdog.AddRule(timeseries.Rule{
		Name:      "fleet-availability",
		Value:     &timeseries.ValueSource{Series: "fleet_down_nodes"},
		Op:        timeseries.AtMost,
		Threshold: 0,
	})
	m.watchdog.AddRule(timeseries.Rule{
		Name:      "sharing-efficiency",
		Value:     &timeseries.ValueSource{Series: "mem_sharing_efficiency"},
		Op:        timeseries.AtLeast,
		Threshold: 1,
	})
	m.sampler.Sample(0)
	return m
}

// observe is server.observe with a span per telemetry layer.
func (m *mirror) observe(latency time.Duration, failed bool) {
	m.rec.begin("gateway.observe")
	defer m.rec.end()
	m.requests.Inc()
	if failed {
		m.failures.Inc()
	}
	if latency <= 0 {
		latency = time.Microsecond
	}
	now := m.timeline.Advance(latency)
	m.rec.begin("timeseries.sample")
	m.sampler.Sample(now)
	m.rec.end()
	m.rec.begin("timeseries.watchdog")
	m.watchdog.Evaluate(now)
	m.rec.end()
	m.rec.begin("telemetry.flush")
	m.tail.Flush(now)
	m.rec.end()
}

// encode is writeJSON into a buffer: the same indented encoding the
// gateway sends.
func (m *mirror) encode(status int, v any) reply {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // a bytes.Buffer cannot fail; the values are the gateway's own maps
	return reply{status: status, body: buf.Bytes()}
}

func (m *mirror) fail(status int, err error) reply {
	return m.encode(status, map[string]string{"error": err.Error()})
}

func latencyMap(inv *platform.Invocation) map[string]string {
	return map[string]string{
		"start-up": inv.Breakdown.Startup().String(),
		"exec":     inv.Breakdown.Exec().String(),
		"others":   inv.Breakdown.Others().String(),
		"total":    inv.Breakdown.Total().String(),
	}
}

// do routes one op to the mirrored handler, under the op's root span.
func (m *mirror) do(o op) (reply, error) {
	m.rec.beginOp(o.class, "gateway.handler")
	defer m.rec.end()
	switch {
	case o.class == classInvoke:
		return m.invoke(o), nil
	case o.class == classRun:
		return m.workflowRun(o), nil
	case o.class == classReplay:
		return m.workflowReplay(o), nil
	case o.class == classRemove:
		return m.remove(o), nil
	case o.path == "/install":
		return m.install(o), nil
	case o.path == "/workflows":
		return m.workflowRegister(o), nil
	case o.class == classScrape:
		return m.scrape(o)
	}
	return reply{}, fmt.Errorf("mirror: no handler for %s %s", o.method, o.path)
}

func (m *mirror) install(o op) reply {
	var req struct {
		Name          string         `json:"name"`
		Lang          string         `json:"lang"`
		Source        string         `json:"source"`
		Entry         string         `json:"entry"`
		DefaultParams map[string]any `json:"default_params"`
	}
	m.rec.begin("gateway.decode")
	err := json.NewDecoder(bytes.NewReader(o.body)).Decode(&req)
	m.rec.end()
	if err != nil {
		return m.fail(http.StatusBadRequest, err)
	}
	l := rt.Lang(req.Lang)
	if l == "" {
		l = rt.LangNode
	}
	m.rec.begin("cluster.install")
	report, err := m.c.InstallReported(platform.Function{
		Name: req.Name, Source: req.Source, Lang: l, Entry: req.Entry, DefaultParams: req.DefaultParams,
	})
	m.rec.end()
	if err != nil {
		return m.fail(http.StatusBadRequest, err)
	}
	m.rec.begin("gateway.encode")
	defer m.rec.end()
	return m.encode(http.StatusCreated, map[string]any{
		"function":       report.Function,
		"install_time":   report.Duration.String(),
		"snapshot_bytes": report.SnapshotBytes,
		"jit_compiled":   report.JITCompiled,
	})
}

func (m *mirror) invoke(o op) reply {
	body := o.body
	if len(body) == 0 {
		body = []byte("{}")
	}
	m.rec.begin("gateway.decode")
	params, err := rt.DecodeJSON(body)
	m.rec.end()
	if err != nil {
		return m.fail(http.StatusBadRequest, fmt.Errorf("params: %w", err))
	}
	m.rec.begin("gateway.scope")
	sc := m.c.Journal().NewScope("gateway", "POST /invoke", 0, events.A("function", o.name))
	m.rec.end()
	m.rec.begin("cluster.invoke")
	inv, node, err := m.c.Invoke(o.name, params, platform.InvokeOptions{Trace: sc})
	m.rec.end()
	var end time.Duration
	if inv != nil {
		end = inv.Clock.Now()
	}
	if err != nil {
		sc.Close(end, events.A("error", err.Error()))
		m.observe(end, true)
		return m.encode(http.StatusBadGateway, map[string]any{"error": err.Error(), "trace_id": uint64(sc.TraceID())})
	}
	m.rec.begin("gateway.scope")
	sc.Close(end)
	m.rec.end()
	m.observe(inv.Breakdown.Total(), false)
	m.rec.begin("gateway.encode")
	defer m.rec.end()
	resultJSON, err := rt.EncodeJSON(inv.Result)
	if err != nil {
		resultJSON = []byte("null")
	}
	return m.encode(http.StatusOK, map[string]any{
		"result":   json.RawMessage(resultJSON),
		"response": inv.Response,
		"latency":  latencyMap(inv),
		"sandbox":  inv.SandboxID,
		"node":     node.Name,
		"trace_id": uint64(sc.TraceID()),
		"logs":     inv.Logs,
	})
}

func (m *mirror) remove(o op) reply {
	m.rec.begin("cluster.remove")
	err := m.c.Remove(o.name)
	m.rec.end()
	if err != nil {
		return m.fail(http.StatusNotFound, err)
	}
	return m.encode(http.StatusOK, map[string]string{"removed": o.name})
}

func (m *mirror) workflowRegister(o op) reply {
	spec, err := workflow.ParseSpec(o.body)
	if err == nil {
		err = m.wf.Register(spec)
	}
	if err != nil {
		return m.fail(http.StatusBadRequest, err)
	}
	return m.encode(http.StatusCreated, map[string]any{"workflow": spec.Name, "steps": len(spec.Steps)})
}

func (m *mirror) workflowRun(o op) reply {
	if m.wf.Spec(o.name) == nil {
		return m.fail(http.StatusNotFound, fmt.Errorf("workflow %q: not registered", o.name))
	}
	var input map[string]any
	m.rec.begin("gateway.decode")
	err := json.NewDecoder(bytes.NewReader(o.body)).Decode(&input)
	m.rec.end()
	if err != nil && err != io.EOF {
		return m.fail(http.StatusBadRequest, fmt.Errorf("input: %w", err))
	}
	m.rec.begin("workflow.run")
	run, err := m.wf.Run(o.name, input, m.timeline.Now())
	m.rec.end()
	if err != nil {
		m.observe(0, true)
		return m.encode(http.StatusBadGateway, map[string]any{"error": err.Error()})
	}
	m.observe(run.Invocation.Breakdown.Total(), run.Status != workflow.RunCompleted)
	status := http.StatusOK
	if run.Status != workflow.RunCompleted {
		status = http.StatusBadGateway
	}
	m.rec.begin("gateway.encode")
	defer m.rec.end()
	return m.encode(status, m.runSummary(run))
}

// runSummary is server.runSummary.
func (m *mirror) runSummary(run *workflow.Run) map[string]any {
	steps := make([]map[string]any, 0)
	for _, st := range run.Steps(m.wf) {
		entry := map[string]any{"id": st.ID, "function": st.Function, "status": st.Status, "attempts": st.Attempts}
		if st.Error != "" {
			entry["error"] = st.Error
		}
		steps = append(steps, entry)
	}
	return map[string]any{
		"run": run.ID, "workflow": run.Workflow, "status": run.Status, "steps": steps,
		"trace_id": uint64(run.TraceID()), "latency": latencyMap(run.Invocation),
	}
}

func (m *mirror) workflowReplay(o op) reply {
	if m.wf.Spec(o.name) == nil {
		return m.fail(http.StatusNotFound, fmt.Errorf("workflow %q: not registered", o.name))
	}
	m.rec.begin("workflow.replay")
	runs, err := m.wf.ReplayDLQ(o.name, m.timeline.Now())
	m.rec.end()
	if err != nil {
		return m.fail(http.StatusBadGateway, err)
	}
	out := make([]map[string]any, 0, len(runs))
	for _, run := range runs {
		m.observe(run.Invocation.Breakdown.Total(), run.Status != workflow.RunCompleted)
		out = append(out, m.runSummary(run))
	}
	return m.encode(http.StatusOK, map[string]any{"workflow": o.name, "replayed": out})
}

// scrape mirrors the three operator read endpoints the storm polls.
func (m *mirror) scrape(o op) (reply, error) {
	u, err := url.Parse(o.path)
	if err != nil {
		return reply{}, err
	}
	var buf bytes.Buffer
	switch u.Path {
	case "/metrics":
		m.rec.begin("metrics.write")
		err = m.c.Metrics().WriteFormat(&buf, "json")
		m.rec.end()
		return reply{status: http.StatusOK, body: buf.Bytes()}, err
	case "/insight/report":
		m.rec.begin("insight.report")
		rep := insight.Analyze(m.c.Journal().Events())
		m.rec.end()
		if m.tail != nil {
			st := m.tail.Stats()
			rep.AnnotateCoverage(int(st.KeptTraces), int(st.DecidedTraces))
		}
		insight.CountReport(m.c.Metrics(), "report")
		m.rec.begin("gateway.encode")
		defer m.rec.end()
		return m.encode(http.StatusOK, rep), nil
	case "/events/stream":
		since, err := strconv.ParseUint(u.Query().Get("since"), 10, 64)
		if err != nil {
			return m.fail(http.StatusBadRequest, err), nil
		}
		m.rec.begin("events.stream")
		defer m.rec.end()
		var fresh []events.Event
		for _, e := range m.c.Journal().Events() {
			if e.Seq > since {
				fresh = append(fresh, e)
			}
		}
		next := since
		if len(fresh) > 0 {
			next = fresh[len(fresh)-1].Seq
		}
		err = events.WriteNDJSON(&buf, fresh)
		return reply{status: http.StatusOK, body: buf.Bytes(), nextSince: strconv.FormatUint(next, 10)}, err
	}
	return reply{}, fmt.Errorf("mirror: no scrape handler for %s", strings.TrimSpace(o.path))
}
