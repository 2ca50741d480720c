// Command fwsim runs a Fireworks cluster behind a real HTTP gateway —
// the serverless frontend of Figure 1 over the simulated backend. It
// lets you drive installs and invocations with curl and watch fleet
// state (live microVMs, memory, snapshot store, node health) and the
// causal event journal every request records into.
//
//	fwsim -addr :8080
//
//	# install a function (deployed on every node)
//	curl -s localhost:8080/install -d '{
//	  "name": "hello",
//	  "lang": "nodejs",
//	  "source": "func main(params) { return \"hi \" + params.who; }",
//	  "default_params": {"who": "world"}
//	}'
//
//	# invoke it; the response carries the node that served it and the
//	# trace id of the request's event trail
//	curl -s localhost:8080/invoke/hello -d '{"who": "fireworks"}'
//
//	# inspect the platform
//	curl -s localhost:8080/functions
//	curl -s localhost:8080/stats
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/metrics
//	curl -s 'localhost:8080/metrics?format=json'
//
//	# telemetry: per-request virtual-time series, the smem-style fleet
//	# memory report, and the SLO watchdog's alert state
//	curl -s localhost:8080/timeseries > series.csv
//	curl -s 'localhost:8080/timeseries?format=json'
//	curl -s localhost:8080/memory
//	curl -s 'localhost:8080/memory?format=json'
//	curl -s localhost:8080/alerts
//
//	# declarative workflows (docs/workflows.md): register a DAG, run
//	# it, then inspect and replay its dead-letter queue
//	curl -s localhost:8080/workflows -d @dag.json
//	curl -s localhost:8080/workflows
//	curl -s localhost:8080/workflows/pipeline/run -d '{"text": "hi"}'
//	curl -s localhost:8080/workflows/pipeline/dlq
//	curl -s -X POST localhost:8080/workflows/pipeline/dlq/replay
//
//	# pull one request's trace, or the whole journal
//	curl -s localhost:8080/trace/1
//	curl -s 'localhost:8080/events?format=chrome' > trace.json  # open in Perfetto
//	curl -s 'localhost:8080/events?format=ndjson&limit=100'
//
//	# live-stream the journal (NDJSON long-poll; resume from the
//	# X-Next-Since header) and read the telemetry plane's own books
//	curl -s 'localhost:8080/events/stream?since=0&wait_ms=1000'
//	curl -s localhost:8080/telemetry
//
// With -metrics the gateway is skipped entirely: fwsim drives a demo
// workload across a simulated cluster and dumps the fleet-wide metrics
// snapshot (restore latencies, CoW faults, queue dwell, per-node
// placement) to stdout, then exits. -trace-dump writes the demo's
// event journal to a file (Chrome trace-event JSON when the name ends
// in .json, NDJSON otherwise) and -profile folds it into virtual-time
// flame-stack lines on stderr.
//
//	fwsim -metrics text -nodes 3 -invocations 12
//	fwsim -metrics text -trace-dump trace.json -profile
//
// With -faults the deterministic fault-injection plane is armed
// (internal/faults): the seed pins the fault schedule, the rate is the
// per-operation fault probability, and the platform runs with its
// default retry and failover policies so injected faults are mostly
// absorbed rather than surfaced.
//
//	fwsim -metrics text -faults seed=7,rate=0.05
//	fwsim -addr :8080 -faults seed=7,rate=0.01
//
// With -telem the telemetry governor is armed (docs/telemetry.md):
// completed traces run through the tail-sampling policy chain (errors,
// latency outliers, and DLQ runs always kept; the rest kept at the
// given rate, seeded), the registry enforces a per-family cardinality
// budget when card is set, and the timeseries sampler grows rollup
// tiers. GET /telemetry reports the plane's own accounting.
//
//	fwsim -addr :8080 -telem seed=1,rate=0.05,card=64
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/insight"
	"repro/internal/metrics"
	"repro/internal/msgbus"
	"repro/internal/platform"
	rt "repro/internal/runtime"
	"repro/internal/telemetry"
	"repro/internal/timeseries"
	"repro/internal/vclock"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

type server struct {
	c *cluster.Cluster

	// wf is the gateway-level workflow engine: DAGs registered over
	// HTTP execute their steps through the cluster (each step is placed
	// like any other invocation) while the step/DLQ topics live on the
	// gateway's own broker.
	wf *workflow.Engine

	// timeline is the gateway's own virtual clock: each invocation
	// advances it by the request's virtual latency, giving the telemetry
	// layer a monotonic fleet timeline to sample on.
	timeline *vclock.Clock
	sampler  *timeseries.Sampler
	watchdog *timeseries.Watchdog
	requests *metrics.Counter
	failures *metrics.Counter

	// tail is the tail-based trace sampler (nil unless -telem armed):
	// it buffers per-trace state and, once a trace completes, either
	// keeps it or physically drops it from the journal
	// (docs/telemetry.md).
	tail *telemetry.TailSampler

	mu       sync.Mutex
	installs map[string]*platform.InstallReport
}

type installRequest struct {
	Name          string         `json:"name"`
	Lang          string         `json:"lang"`
	Source        string         `json:"source"`
	Entry         string         `json:"entry"`
	DefaultParams map[string]any `json:"default_params"`
}

// newServer builds a gateway over a fresh cluster. With chaos non-nil
// the fault plane arms immediately (the gateway is long-lived) and the
// platform runs with its default retry and failover policies. With
// telem non-nil the telemetry governor arms: tail-based trace sampling
// over the journal, a cardinality budget on the registry, and rollup
// tiers on the sampler.
func newServer(nodes int, chaos *faultsConfig, telem *telemetry.Config, card int) *server {
	envCfg := platform.EnvConfig{}
	opts := core.Options{}
	if chaos != nil {
		envCfg.Faults = faults.DefaultPlan(chaos.seed, chaos.rate)
		opts.Retry = faults.DefaultRetryPolicy()
	}
	c := cluster.New(nodes, cluster.LeastInflight, envCfg,
		func(env *platform.Env) platform.Platform {
			return core.New(env, opts)
		})
	if chaos != nil {
		c.SetFailover(cluster.FailoverPolicy{MaxFailovers: 2})
	}
	s := &server{
		c:        c,
		timeline: vclock.New(),
		installs: make(map[string]*platform.InstallReport),
		requests: c.Metrics().Counter("gateway_requests_total"),
		failures: c.Metrics().Counter("gateway_failures_total"),
	}
	wfBus := msgbus.NewBroker()
	wfBus.Instrument(c.Metrics())
	wfOpts := workflow.Options{}
	if chaos != nil {
		wfBus.AttachFaults(envCfg.Faults)
		wfOpts.Retry = faults.DefaultRetryPolicy()
	}
	s.wf = workflow.New(wfBus, c.Journal(), c.Metrics(), cluster.Invoker{C: c}, wfOpts)
	s.sampler = timeseries.NewSampler(c.Metrics(), timeseries.DefaultCapacity)
	if telem != nil {
		// Arm the plane before the first event: the eviction guard and
		// observer must see every trace from its first span.
		s.tail = telemetry.New(*telem)
		s.tail.Attach(c.Journal(), c.Metrics())
		c.Metrics().SetCardinalityLimit(card)
		s.sampler.SetRollups(timeseries.DefaultRollups())
	}
	// Both probes run on every request, so they read state that is
	// already current: the node_state gauge /healthz derives the same
	// count from mirrors Node.Health(), and each host keeps the two
	// totals Report() would sum.
	s.sampler.AddProbe("fleet_down_nodes", func() float64 {
		down := 0
		for _, n := range c.Nodes() {
			if n.Health() == cluster.Down {
				down++
			}
		}
		return float64(down)
	})
	s.sampler.AddProbe("mem_sharing_efficiency", func() float64 { return s.sharingEfficiency() })
	s.watchdog = timeseries.NewWatchdog(s.sampler, c.Journal(), c.Metrics())
	s.watchdog.AddRule(timeseries.Rule{
		Name:      "invoke-success-rate",
		Ratio:     &timeseries.RatioSource{Num: "gateway_failures_total", Den: "gateway_requests_total", Complement: true, MinDen: 20},
		Op:        timeseries.AtLeast,
		Threshold: 0.99,
	})
	s.watchdog.AddRule(timeseries.Rule{
		Name:      "invoke-p99-latency",
		Value:     &timeseries.ValueSource{Series: metrics.Name("invoke_latency", "platform", "fireworks") + ".p99"},
		Op:        timeseries.AtMost,
		Threshold: float64(2 * time.Second),
	})
	s.watchdog.AddRule(timeseries.Rule{
		Name:      "fleet-availability",
		Value:     &timeseries.ValueSource{Series: "fleet_down_nodes"},
		Op:        timeseries.AtMost,
		Threshold: 0,
	})
	s.watchdog.AddRule(timeseries.Rule{
		Name:      "sharing-efficiency",
		Value:     &timeseries.ValueSource{Series: "mem_sharing_efficiency"},
		Op:        timeseries.AtLeast,
		Threshold: 1,
	})
	// The zero-time baseline sample anchors every burn-rate delta.
	s.sampler.Sample(0)
	return s
}

// sharingEfficiency is the fleet-wide RSS-to-resident ratio: how many
// bytes the VMs think they have mapped per byte the hosts actually
// hold. >1 means snapshot pages are being shared (docs/memory.md);
// with no resident memory it is neutrally 1.
func (s *server) sharingEfficiency() float64 {
	var rss, used float64
	for _, n := range s.c.Nodes() {
		r, u := n.Env.Mem.SharingTotals()
		rss += float64(r)
		used += float64(u)
	}
	if used == 0 {
		return 1
	}
	return rss / used
}

// observe folds one finished gateway request into the telemetry layer:
// the timeline advances by the request's virtual latency, the sampler
// snapshots the registry at the new time, and the watchdog evaluates
// every SLO rule there.
func (s *server) observe(latency time.Duration, failed bool) {
	s.requests.Inc()
	if failed {
		s.failures.Inc()
	}
	if latency <= 0 {
		latency = time.Microsecond // failures still move the timeline
	}
	now := s.timeline.Advance(latency)
	s.sampler.Sample(now)
	s.watchdog.Evaluate(now)
	// Decide traces that stalled without closing their root span; the
	// watchdog ran first so a just-fired alert still promotes its
	// evidence trace.
	s.tail.Flush(now)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	metricsDump := flag.String("metrics", "", `dump mode: run a cluster demo and write the metrics snapshot to stdout ("text" or "json"), then exit`)
	nodes := flag.Int("nodes", 3, "cluster size (gateway and -metrics demo)")
	invocations := flag.Int("invocations", 12, "invocations to run in the -metrics demo")
	faultsSpec := flag.String("faults", "", `arm deterministic fault injection: "seed=N,rate=P" (rate is per-operation probability, e.g. 0.01)`)
	telemSpec := flag.String("telem", "", `arm the telemetry governor: "seed=N,rate=P[,card=K]" (rate is the probabilistic keep fraction for boring traces, card a per-family label-value budget)`)
	traceDump := flag.String("trace-dump", "", `in -metrics demo mode, write the event journal to this file (Chrome trace-event JSON for *.json, NDJSON otherwise)`)
	profile := flag.Bool("profile", false, "in -metrics demo mode, fold the event journal into virtual-time flame-stack lines on stderr")
	flag.Parse()

	chaos, err := parseFaultsSpec(*faultsSpec)
	if err != nil {
		log.Fatal(err)
	}
	telem, card, err := telemetry.ParseSpec(*telemSpec)
	if err != nil {
		log.Fatalf("fwsim: %v", err)
	}

	if *metricsDump != "" {
		cfg := demoConfig{
			format:      *metricsDump,
			nodes:       *nodes,
			invocations: *invocations,
			chaos:       chaos,
			traceDump:   *traceDump,
		}
		if *profile {
			cfg.profile = os.Stderr
		}
		if err := runMetricsDemo(os.Stdout, cfg); err != nil {
			log.Fatal(err)
		}
		return
	}

	if chaos != nil {
		log.Printf("fault injection armed: seed=%d rate=%g", chaos.seed, chaos.rate)
	}
	if telem != nil {
		log.Printf("telemetry governor armed: seed=%d rate=%g card=%d", telem.Seed, max(telem.KeepRate, 0), card)
	}
	s := newServer(*nodes, chaos, telem, card)
	log.Printf("fwsim gateway on http://%s (%d nodes)", *addr, *nodes)
	log.Fatal(http.ListenAndServe(*addr, s.mux()))
}

// faultsConfig is a parsed -faults flag.
type faultsConfig struct {
	seed uint64
	rate float64
}

// parseFaultsSpec parses "seed=N,rate=P" (either key optional, any
// order). An empty spec disables injection (nil config).
func parseFaultsSpec(spec string) (*faultsConfig, error) {
	if spec == "" {
		return nil, nil
	}
	cfg := &faultsConfig{seed: 1, rate: 0.01}
	for _, field := range strings.Split(spec, ",") {
		key, value, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return nil, fmt.Errorf("fwsim: -faults field %q is not key=value", field)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fwsim: -faults seed: %w", err)
			}
			cfg.seed = n
		case "rate":
			r, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return nil, fmt.Errorf("fwsim: -faults rate: %w", err)
			}
			if r < 0 || r > 1 {
				return nil, fmt.Errorf("fwsim: -faults rate %v out of [0,1]", r)
			}
			cfg.rate = r
		default:
			return nil, fmt.Errorf("fwsim: -faults has no key %q (want seed, rate)", key)
		}
	}
	return cfg, nil
}

// maxBodyBytes caps every request body the gateway reads; a larger one
// is answered 413 (see writeBodyError).
const maxBodyBytes = 1 << 20

// mux registers the gateway's routes.
func (s *server) mux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /install", s.handleInstall)
	mux.HandleFunc("POST /invoke/{name}", s.handleInvoke)
	mux.HandleFunc("GET /functions", s.handleFunctions)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /timeseries", s.handleTimeseries)
	mux.HandleFunc("GET /memory", s.handleMemory)
	mux.HandleFunc("GET /alerts", s.handleAlerts)
	mux.HandleFunc("GET /trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /events", s.handleEvents)
	mux.HandleFunc("GET /events/stream", s.handleEventsStream)
	mux.HandleFunc("GET /telemetry", s.handleTelemetry)
	mux.HandleFunc("GET /insight/criticalpath/{trace}", s.handleInsightCriticalPath)
	mux.HandleFunc("GET /insight/servicegraph", s.handleInsightServiceGraph)
	mux.HandleFunc("GET /insight/slowest", s.handleInsightSlowest)
	mux.HandleFunc("GET /insight/report", s.handleInsightReport)
	mux.HandleFunc("POST /insight/diff", s.handleInsightDiff)
	mux.HandleFunc("DELETE /functions/{name}", s.handleRemove)
	mux.HandleFunc("GET /workflows", s.handleWorkflows)
	mux.HandleFunc("POST /workflows", s.handleWorkflowRegister)
	mux.HandleFunc("POST /workflows/{name}/run", s.handleWorkflowRun)
	mux.HandleFunc("GET /workflows/{name}/dlq", s.handleWorkflowDLQ)
	mux.HandleFunc("POST /workflows/{name}/dlq/replay", s.handleWorkflowDLQReplay)
	return http.MaxBytesHandler(mux, maxBodyBytes)
}

// demoConfig parameterizes the -metrics demo run.
type demoConfig struct {
	format      string
	nodes       int
	invocations int
	chaos       *faultsConfig
	// traceDump, when non-empty, is the file the demo's event journal
	// is written to after the workload (chrome for *.json, else ndjson).
	traceDump string
	// profile, when non-nil, receives the journal folded into
	// virtual-time flame-stack lines.
	profile io.Writer
}

// runMetricsDemo drives a built-in workload across a Fireworks cluster
// behind the least-inflight placement policy, then writes the shared
// registry's snapshot: restore counts and latency histograms, CoW
// faults, queue dwell, and per-node placement counters. With chaos
// non-nil the fault plane arms after the install (so the one-time
// deploy cannot fail) and the demo runs with retry + failover on;
// faulted invocations that still fail are counted, not fatal.
func runMetricsDemo(w io.Writer, cfg demoConfig) error {
	if cfg.nodes <= 0 || cfg.invocations <= 0 {
		return fmt.Errorf("fwsim: -nodes and -invocations must be positive")
	}
	envCfg := platform.EnvConfig{}
	opts := core.Options{}
	var plane *faults.Plane
	if cfg.chaos != nil {
		plane = faults.NewPlane(cfg.chaos.seed)
		envCfg.Faults = plane
		opts.Retry = faults.DefaultRetryPolicy()
	}
	c := cluster.New(cfg.nodes, cluster.LeastInflight, envCfg,
		func(env *platform.Env) platform.Platform {
			return core.New(env, opts)
		})
	if cfg.chaos != nil {
		c.SetFailover(cluster.FailoverPolicy{MaxFailovers: 2})
	}
	wl := workloads.NetLatency(rt.LangNode)
	if err := c.Install(wl.Function); err != nil {
		return err
	}
	plane.ApplyDefaultPlan(chaosRate(cfg.chaos))
	params := platform.MustParams(nil)
	failed := 0
	for i := 0; i < cfg.invocations; i++ {
		if _, _, err := c.Invoke(wl.Name, params, platform.InvokeOptions{}); err != nil {
			if cfg.chaos == nil {
				return err
			}
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "fwsim: %d/%d invocations failed despite retry+failover\n", failed, cfg.invocations)
	}
	if err := c.Metrics().WriteFormat(w, cfg.format); err != nil {
		return fmt.Errorf("fwsim: %w", err)
	}
	if cfg.traceDump != "" {
		if err := events.WriteFile(cfg.traceDump, c.Journal().Events()); err != nil {
			return fmt.Errorf("fwsim: -trace-dump: %w", err)
		}
	}
	if cfg.profile != nil {
		if err := events.WriteProfile(cfg.profile, c.Journal().Events()); err != nil {
			return fmt.Errorf("fwsim: -profile: %w", err)
		}
	}
	return nil
}

func chaosRate(chaos *faultsConfig) float64 {
	if chaos == nil {
		return 0
	}
	return chaos.rate
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeBodyError answers a request whose body could not be read or
// decoded: 413 when it ran past maxBodyBytes, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, err)
}

func (s *server) handleInstall(w http.ResponseWriter, r *http.Request) {
	var req installRequest
	// UseNumber keeps integer default_params integers (platform's
	// FromGo conversion maps json.Number exactly as rt.DecodeJSON does
	// for /invoke), so priming runs the guest on the types it will see.
	dec := json.NewDecoder(r.Body)
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		writeBodyError(w, err)
		return
	}
	lang := rt.Lang(req.Lang)
	if lang == "" {
		lang = rt.LangNode
	}
	report, err := s.c.InstallReported(platform.Function{
		Name:          req.Name,
		Source:        req.Source,
		Lang:          lang,
		Entry:         req.Entry,
		DefaultParams: req.DefaultParams,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	s.installs[req.Name] = report
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, map[string]any{
		"function":       report.Function,
		"install_time":   report.Duration.String(),
		"snapshot_bytes": report.SnapshotBytes,
		"jit_compiled":   report.JITCompiled,
	})
}

func (s *server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	if len(body) == 0 {
		body = []byte("{}")
	}
	params, err := rt.DecodeJSON(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("params: %w", err))
		return
	}
	// Every request is one trace: the gateway span roots it, and the
	// cluster/core layers nest under it all the way down to the exec.
	sc := s.c.Journal().NewScope("gateway", "POST /invoke", 0,
		events.A("function", name))
	inv, node, err := s.c.Invoke(name, params, platform.InvokeOptions{Trace: sc})
	var end time.Duration
	if inv != nil {
		end = inv.Clock.Now()
	}
	if err != nil {
		sc.Close(end, events.A("error", err.Error()))
		s.observe(end, true)
		writeJSON(w, http.StatusBadGateway, map[string]any{
			"error":    err.Error(),
			"trace_id": uint64(sc.TraceID()),
		})
		return
	}
	sc.Close(end)
	s.observe(inv.Breakdown.Total(), false)
	resultJSON, err := rt.EncodeJSON(inv.Result)
	if err != nil {
		resultJSON = []byte("null")
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"result":   json.RawMessage(resultJSON),
		"response": inv.Response,
		"latency": map[string]string{
			"start-up": inv.Breakdown.Startup().String(),
			"exec":     inv.Breakdown.Exec().String(),
			"others":   inv.Breakdown.Others().String(),
			"total":    inv.Breakdown.Total().String(),
		},
		"sandbox":  inv.SandboxID,
		"node":     node.Name,
		"trace_id": uint64(sc.TraceID()),
		"logs":     inv.Logs,
	})
}

func (s *server) handleFunctions(w http.ResponseWriter, r *http.Request) {
	// Name and report are read under one lock acquisition: a concurrent
	// DELETE must not leave a listed name without its report.
	s.mu.Lock()
	names := make([]string, 0, len(s.installs))
	for name := range s.installs {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]map[string]any, 0, len(names))
	for _, name := range names {
		rep := s.installs[name]
		out = append(out, map[string]any{
			"name":           name,
			"snapshot_bytes": rep.SnapshotBytes,
			"install_time":   rep.Duration.String(),
		})
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	var memUsed, memTotal, snapBytes uint64
	var vms, namespaces int
	swapping := false
	perNode := make([]map[string]any, 0, len(s.c.Nodes()))
	for _, n := range s.c.Nodes() {
		memUsed += n.Env.Mem.Used()
		memTotal += n.Env.Mem.Capacity()
		snapBytes += n.Env.Snaps.UsedBytes()
		vms += n.Env.HV.VMCount()
		namespaces += n.Env.Router.NamespaceCount()
		if n.Env.Mem.Swapping() {
			swapping = true
		}
		perNode = append(perNode, map[string]any{
			"name":        n.Name,
			"health":      n.Health().String(),
			"memory_used": n.Env.Mem.Used(),
			"swapping":    n.Env.Mem.Swapping(),
			"microvms":    n.Env.HV.VMCount(),
			"invocations": n.Invocations(),
		})
	}
	first := s.c.Nodes()[0]
	writeJSON(w, http.StatusOK, map[string]any{
		"host_memory_used":    memUsed,
		"host_memory_total":   memTotal,
		"swap_threshold":      first.Env.Mem.SwapThreshold(),
		"swapping":            swapping,
		"live_microvms":       vms,
		"network_namespaces":  namespaces,
		"snapshot_disk_bytes": snapBytes,
		"snapshots":           first.Env.Snaps.Names(),
		"databases":           first.Env.Couch.Names(),
		"nodes":               perNode,
	})
}

// handleHealthz serves the fleet availability view. The derivation is
// platform.DeriveFleetHealth over the node_state gauges, which mirror
// the Node.Health() states the SLO watchdog's fleet_down_nodes probe
// counts, so the dashboard and the alerting path cannot disagree; 503
// only when every node is down (the cluster absorbs anything less).
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	f := platform.DeriveFleetHealth(s.c.Metrics().Snapshot())
	code := http.StatusOK
	if f.AllDown() {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"status": f.Status, "nodes": f.Nodes})
}

// handleTimeseries dumps the gateway sampler's full history: every
// registry counter/gauge (plus histogram count/p50/p99 derivatives and
// the fleet probes) sampled once per completed request on the virtual
// timeline. CSV by default, ?format=json for the JSON shape.
func (s *server) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	format := "csv"
	contentType := "text/csv; charset=utf-8"
	switch r.URL.Query().Get("format") {
	case "", "csv":
	case "json":
		format = "json"
		contentType = "application/json"
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("timeseries: unknown format %q (want csv or json)", r.URL.Query().Get("format")))
		return
	}
	w.Header().Set("Content-Type", contentType)
	_ = s.sampler.WriteFormat(w, format)
}

// handleMemory serves the smem-style fleet memory report: per node, a
// per-VM RSS/PSS/USS table plus the snapshot page-lineage table
// (docs/memory.md). ?format=json returns the structured reports.
func (s *server) handleMemory(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		out := make([]map[string]any, 0, len(s.c.Nodes()))
		for _, n := range s.c.Nodes() {
			out = append(out, map[string]any{"node": n.Name, "report": n.Env.Mem.Report()})
		}
		writeJSON(w, http.StatusOK, out)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, n := range s.c.Nodes() {
		fmt.Fprintf(w, "### %s\n", n.Name)
		n.Env.Mem.Report().WriteText(w)
		fmt.Fprintln(w)
	}
}

// handleAlerts serves the SLO watchdog state: every alert fired so far
// (each carrying the journal ref of its alert instant and the causal
// link GET /trace/{id} resolves), the rules currently in violation,
// and the declared contracts.
func (s *server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	rules := make([]string, 0)
	for _, rule := range s.watchdog.Rules() {
		rules = append(rules, rule.String())
	}
	firing := s.watchdog.Firing()
	if firing == nil {
		firing = []string{}
	}
	alerts := s.watchdog.Alerts()
	if alerts == nil {
		alerts = []timeseries.Alert{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"rules":  rules,
		"firing": firing,
		"alerts": alerts,
	})
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// An unknown format is a client error, matching the /events limit
	// validation — a typo must not silently fall back to text.
	format := "text"
	contentType := "text/plain; charset=utf-8"
	switch r.URL.Query().Get("format") {
	case "", "text":
	case "json":
		format = "json"
		contentType = "application/json"
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("metrics: unknown format %q (want text or json)", r.URL.Query().Get("format")))
		return
	}
	w.Header().Set("Content-Type", contentType)
	_ = s.c.Metrics().WriteFormat(w, format)
}

func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("trace id: %w", err))
		return
	}
	evs := s.c.Journal().Trace(events.TraceID(id))
	if len(evs) == 0 {
		writeError(w, http.StatusNotFound, fmt.Errorf("trace %d: no events", id))
		return
	}
	s.writeEvents(w, r, evs)
}

func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	limit := 0 // no limit: the whole ring
	if limitStr := r.URL.Query().Get("limit"); limitStr != "" {
		// A limit must be a positive integer; zero, negatives, and
		// garbage are client errors, not silent defaults.
		var err error
		if limit, err = strconv.Atoi(limitStr); err != nil || limit <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("events: bad limit %q (want a positive integer)", limitStr))
			return
		}
	}
	s.writeEvents(w, r, s.c.Journal().Tail(limit))
}

// handleEventsStream long-polls the journal as NDJSON: events with
// Seq > since (?since=N, default 0 = everything) are written one JSON
// object per line, and the X-Next-Since header carries the highest Seq
// served so the client can resume exactly where it left off. With
// ?wait_ms=N the request blocks up to that long for new events before
// returning an empty body. The stream is post-sampling by
// construction: the tail sampler physically drops non-kept traces from
// the journal, so they never reach a streaming client.
func (s *server) handleEventsStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var since uint64
	if str := q.Get("since"); str != "" {
		v, err := strconv.ParseUint(str, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("stream: bad since %q (want a sequence number)", str))
			return
		}
		since = v
	}
	wait := time.Duration(0)
	if str := q.Get("wait_ms"); str != "" {
		ms, err := strconv.Atoi(str)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("stream: bad wait_ms %q (want a non-negative integer)", str))
			return
		}
		const maxWait = 30 * time.Second
		wait = time.Duration(ms) * time.Millisecond
		if wait > maxWait {
			wait = maxWait
		}
	}
	deadline := time.Now().Add(wait)
	var fresh []events.Event
	for {
		fresh = s.c.Journal().Since(since)
		if len(fresh) > 0 || !time.Now().Before(deadline) {
			break
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	next := since
	if len(fresh) > 0 {
		next = fresh[len(fresh)-1].Seq
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Next-Since", strconv.FormatUint(next, 10))
	_ = events.WriteNDJSON(w, fresh)
}

// handleTelemetry serves the telemetry plane's self-accounting: the
// tail sampler's keep/drop ledger (null when -telem is off), the
// registry's cardinality audit (TopK families by live series), the
// timeseries sampler's resident memory, and the journal's occupancy.
func (s *server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	k := 10
	if str := r.URL.Query().Get("k"); str != "" {
		v, err := strconv.Atoi(str)
		if err != nil || v <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("telemetry: bad k %q (want a positive integer)", str))
			return
		}
		k = v
	}
	var tail any
	if s.tail != nil {
		tail = s.tail.Stats()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"tail_sampling": tail,
		"cardinality":   s.c.Metrics().CardinalityAudit(k),
		"sampler":       s.sampler.Stats(),
		"journal": map[string]any{
			"events":  s.c.Journal().Len(),
			"dropped": s.c.Journal().Dropped(),
		},
	})
}

// handleInsightCriticalPath serves one trace's critical-path analysis:
// the ranked blame table and the root→leaf path of dominant spans.
func (s *server) handleInsightCriticalPath(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("trace"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("insight: trace id: %w", err))
		return
	}
	ti, ok := insight.AnalyzeTrace(s.c.Journal().Trace(events.TraceID(id)))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("insight: trace %d: no events", id))
		return
	}
	insight.CountReport(s.c.Metrics(), "criticalpath")
	writeJSON(w, http.StatusOK, ti)
}

// handleInsightServiceGraph serves the component graph with per-edge
// RED stats, as json (default), dot, or mermaid.
func (s *server) handleInsightServiceGraph(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	contentType := "application/json"
	if format == "dot" || format == "mermaid" {
		contentType = "text/plain; charset=utf-8"
	}
	g := insight.Analyze(s.c.Journal().Events()).Graph
	var buf strings.Builder
	if err := g.WriteFormat(&buf, format); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	insight.CountReport(s.c.Metrics(), "servicegraph")
	w.Header().Set("Content-Type", contentType)
	_, _ = io.WriteString(w, buf.String())
}

// handleInsightSlowest serves the k slowest traces with their critical
// paths — the tail-latency exemplar report.
func (s *server) handleInsightSlowest(w http.ResponseWriter, r *http.Request) {
	k := 5
	if kStr := r.URL.Query().Get("k"); kStr != "" {
		v, err := strconv.Atoi(kStr)
		if err != nil || v <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("insight: bad k %q (want a positive integer)", kStr))
			return
		}
		k = v
	}
	rep := insight.Analyze(s.c.Journal().Events())
	insight.CountReport(s.c.Metrics(), "slowest")
	writeJSON(w, http.StatusOK, rep.Slowest(k))
}

// handleInsightReport serves the full analysis — every trace's
// critical path plus the service graph — the artifact /insight/diff
// compares.
func (s *server) handleInsightReport(w http.ResponseWriter, r *http.Request) {
	rep := insight.Analyze(s.c.Journal().Events())
	if s.tail != nil {
		// The journal is tail-sampled: say how partial the report is.
		st := s.tail.Stats()
		rep.AnnotateCoverage(int(st.KeptTraces), int(st.DecidedTraces))
	}
	insight.CountReport(s.c.Metrics(), "report")
	writeJSON(w, http.StatusOK, rep)
}

// handleInsightDiff compares two insight reports POSTed as
// {"a": <report>, "b": <report>} and attributes the delta to blame
// sites and graph edges.
func (s *server) handleInsightDiff(w http.ResponseWriter, r *http.Request) {
	var req struct {
		A *insight.Report `json:"a"`
		B *insight.Report `json:"b"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeBodyError(w, fmt.Errorf("insight: diff body: %w", err))
		return
	}
	if req.A == nil || req.B == nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("insight: diff needs both \"a\" and \"b\" reports"))
		return
	}
	insight.CountReport(s.c.Metrics(), "diff")
	writeJSON(w, http.StatusOK, insight.Diff(req.A, req.B))
}

// writeEvents renders a slice of journal events per the request's
// format parameter: ndjson (default) or chrome (Perfetto-loadable).
func (s *server) writeEvents(w http.ResponseWriter, r *http.Request, evs []events.Event) {
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "ndjson"
	}
	contentType := "application/x-ndjson"
	if format == "chrome" {
		contentType = "application/json"
	}
	var buf strings.Builder
	if err := events.WriteFormat(&buf, evs, format); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", contentType)
	_, _ = io.WriteString(w, buf.String())
}

// handleWorkflows lists every registered workflow: its DAG (step ids,
// functions, dependencies, conditions) and current DLQ depth.
func (s *server) handleWorkflows(w http.ResponseWriter, r *http.Request) {
	out := make([]map[string]any, 0)
	for _, name := range s.wf.Workflows() {
		spec := s.wf.Spec(name)
		if spec == nil {
			continue
		}
		steps := make([]map[string]any, 0, len(spec.Steps))
		for _, st := range spec.Steps {
			entry := map[string]any{"id": st.ID, "function": st.Function}
			if len(st.After) > 0 {
				entry["after"] = st.After
			}
			if st.When != nil {
				entry["when"] = st.When
			}
			steps = append(steps, entry)
		}
		dlq, err := s.wf.DLQ(name)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		out = append(out, map[string]any{
			"name":      name,
			"steps":     steps,
			"dlq_depth": len(dlq),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleWorkflowRegister registers a workflow DAG from its JSON spec
// (docs/workflows.md documents the format).
func (s *server) handleWorkflowRegister(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	spec, err := workflow.ParseSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.wf.Register(spec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"workflow": spec.Name,
		"steps":    len(spec.Steps),
	})
}

// runSummary renders one workflow run for an HTTP response: status,
// per-step delivery state, and the trace id of the run's single
// end-to-end journal trace.
func (s *server) runSummary(run *workflow.Run) map[string]any {
	steps := make([]map[string]any, 0)
	for _, st := range run.Steps(s.wf) {
		entry := map[string]any{
			"id":       st.ID,
			"function": st.Function,
			"status":   st.Status,
			"attempts": st.Attempts,
		}
		if st.Error != "" {
			entry["error"] = st.Error
		}
		steps = append(steps, entry)
	}
	return map[string]any{
		"run":      run.ID,
		"workflow": run.Workflow,
		"status":   run.Status,
		"steps":    steps,
		"trace_id": uint64(run.TraceID()),
		"latency": map[string]string{
			"start-up": run.Invocation.Breakdown.Startup().String(),
			"exec":     run.Invocation.Breakdown.Exec().String(),
			"others":   run.Invocation.Breakdown.Others().String(),
			"total":    run.Invocation.Breakdown.Total().String(),
		},
	}
}

// handleWorkflowRun executes a registered workflow with the request
// body as input and returns the finished run (completed or stalled —
// stalled runs park their dead steps on the workflow's DLQ).
func (s *server) handleWorkflowRun(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.wf.Spec(name) == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("workflow %q: not registered", name))
		return
	}
	var input map[string]any
	if err := json.NewDecoder(r.Body).Decode(&input); err != nil && err != io.EOF {
		writeBodyError(w, fmt.Errorf("input: %w", err))
		return
	}
	run, err := s.wf.Run(name, input, s.timeline.Now())
	if err != nil {
		s.observe(0, true)
		writeJSON(w, http.StatusBadGateway, map[string]any{"error": err.Error()})
		return
	}
	s.observe(run.Invocation.Breakdown.Total(), run.Status != workflow.RunCompleted)
	status := http.StatusOK
	if run.Status != workflow.RunCompleted {
		status = http.StatusBadGateway
	}
	writeJSON(w, status, s.runSummary(run))
}

// handleWorkflowDLQ lists the workflow's parked dead letters.
func (s *server) handleWorkflowDLQ(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	recs, err := s.wf.DLQ(name)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if recs == nil {
		recs = []workflow.DLQRecord{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"workflow": name,
		"depth":    len(recs),
		"records":  recs,
	})
}

// handleWorkflowDLQReplay redelivers every parked dead letter and
// resumes the stalled runs (e.g. after redeploying a fixed function).
func (s *server) handleWorkflowDLQReplay(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.wf.Spec(name) == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("workflow %q: not registered", name))
		return
	}
	runs, err := s.wf.ReplayDLQ(name, s.timeline.Now())
	if err != nil {
		writeError(w, http.StatusBadGateway, err)
		return
	}
	out := make([]map[string]any, 0, len(runs))
	for _, run := range runs {
		s.observe(run.Invocation.Breakdown.Total(), run.Status != workflow.RunCompleted)
		out = append(out, s.runSummary(run))
	}
	writeJSON(w, http.StatusOK, map[string]any{"workflow": name, "replayed": out})
}

func (s *server) handleRemove(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.c.Remove(name); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	s.mu.Lock()
	delete(s.installs, name)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{"removed": name})
}
