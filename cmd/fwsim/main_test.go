package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/workloads"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := newServer(2, nil, nil)
	ts := httptest.NewServer(s.mux())
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

const installBody = `{
  "name": "hello",
  "lang": "nodejs",
  "source": "func main(params) { return \"hi \" + params.who; }",
  "default_params": {"who": "world"}
}`

func TestInstallAndInvokeOverHTTP(t *testing.T) {
	ts := newTestServer(t)
	status, out := post(t, ts.URL+"/install", installBody)
	if status != http.StatusCreated {
		t.Fatalf("install status = %d: %v", status, out)
	}
	if out["function"] != "hello" || out["snapshot_bytes"].(float64) == 0 {
		t.Fatalf("install response: %v", out)
	}

	status, out = post(t, ts.URL+"/invoke/hello", `{"who": "fireworks"}`)
	if status != http.StatusOK {
		t.Fatalf("invoke status = %d: %v", status, out)
	}
	if out["result"] != "hi fireworks" {
		t.Fatalf("result = %v", out["result"])
	}
	latency := out["latency"].(map[string]any)
	if latency["start-up"] == "" || latency["total"] == "" {
		t.Fatalf("latency missing: %v", latency)
	}
	if out["node"] == "" {
		t.Fatalf("no serving node in response: %v", out)
	}
	if out["trace_id"].(float64) == 0 {
		t.Fatalf("no trace id in response: %v", out)
	}
}

func TestInstallErrorsOverHTTP(t *testing.T) {
	ts := newTestServer(t)
	status, out := post(t, ts.URL+"/install", `{"name": "bad", "source": "func ("}`)
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d", status)
	}
	if out["error"] == "" {
		t.Fatalf("no error body: %v", out)
	}
	status, _ = post(t, ts.URL+"/install", `{broken json`)
	if status != http.StatusBadRequest {
		t.Fatalf("bad JSON status = %d", status)
	}
	// An unknown language is refused before any runtime is built, and
	// the gateway keeps serving.
	status, out = post(t, ts.URL+"/install", `{"name": "old", "lang": "cobol", "source": "func main(p) { return 1; }"}`)
	if status != http.StatusBadRequest || !strings.Contains(fmt.Sprint(out["error"]), `unknown language "cobol"`) {
		t.Fatalf("cobol install = %d: %v", status, out)
	}
	if status, out = post(t, ts.URL+"/install", installBody); status != http.StatusCreated {
		t.Fatalf("install after the refusal = %d: %v", status, out)
	}
	if status, out = post(t, ts.URL+"/invoke/hello", `{"who": "x"}`); status != http.StatusOK {
		t.Fatalf("invoke after the refusal = %d: %v", status, out)
	}
}

func TestInvokeUnknownOverHTTP(t *testing.T) {
	ts := newTestServer(t)
	status, out := post(t, ts.URL+"/invoke/ghost", `{}`)
	if status != http.StatusBadGateway {
		t.Fatalf("status = %d: %v", status, out)
	}
	// Even a failed request gets a trace.
	if out["trace_id"].(float64) == 0 {
		t.Fatalf("failed invoke carries no trace id: %v", out)
	}
}

func TestFunctionsAndStatsEndpoints(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts.URL+"/install", installBody)

	status, body := get(t, ts.URL+"/functions")
	if status != http.StatusOK {
		t.Fatalf("functions status = %d", status)
	}
	var fns []map[string]any
	if err := json.Unmarshal(body, &fns); err != nil {
		t.Fatal(err)
	}
	if len(fns) != 1 || fns[0]["name"] != "hello" {
		t.Fatalf("functions = %v", fns)
	}

	_, body = get(t, ts.URL+"/stats")
	var st map[string]any
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st["snapshot_disk_bytes"].(float64) == 0 {
		t.Fatalf("stats = %v", st)
	}
	if st["live_microvms"].(float64) != 0 {
		t.Fatal("VMs leaked between requests")
	}
	nodes := st["nodes"].([]any)
	if len(nodes) != 2 {
		t.Fatalf("stats nodes = %v", nodes)
	}
}

func TestHealthzEndpoint(t *testing.T) {
	ts := newTestServer(t)
	status, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz status = %d", status)
	}
	var hz map[string]any
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz["status"] != "ok" {
		t.Fatalf("healthz = %v", hz)
	}
	nodes := hz["nodes"].(map[string]any)
	if nodes["node-00"] != "healthy" || nodes["node-01"] != "healthy" {
		t.Fatalf("healthz nodes = %v", nodes)
	}
}

// TestHealthzStates pins /healthz to the shared fleet-health
// derivation (platform.DeriveFleetHealth) that the watchdog probe also
// consumes: 503 only when every node is down.
func TestHealthzStates(t *testing.T) {
	snap := metrics.Snapshot{Gauges: []metrics.GaugeSnapshot{
		{Name: `node_state{node="node-00"}`, Value: 2},
		{Name: `node_state{node="node-01"}`, Value: 2},
		{Name: `other_gauge`, Value: 5},
	}}
	f := platform.DeriveFleetHealth(snap)
	if !f.AllDown() || f.Status != "down" {
		t.Fatalf("all-down fleet = %+v", f)
	}
	snap.Gauges[0].Value = 0
	f = platform.DeriveFleetHealth(snap)
	if f.AllDown() || f.Status != "degraded" {
		t.Fatalf("degraded fleet = %+v", f)
	}
}

// The gateway samples on a one-second grid of its timeline: the
// baseline row at 0, then one row per request that crossed a tick,
// stamped at the last tick it crossed.
func TestTimeseriesEndpoint(t *testing.T) {
	s := newServer(2, nil, nil)
	ts := httptest.NewServer(s.mux())
	t.Cleanup(ts.Close)
	post(t, ts.URL+"/install", installBody)

	crossed := 0 // requests that crossed at least one tick
	step := func(request func()) {
		before := s.timeline.Now()
		request()
		if s.timeline.Now()/samplePeriod > before/samplePeriod {
			crossed++
		}
	}
	invoke := func() { post(t, ts.URL+"/invoke/hello", `{"who": "a"}`) }
	step(invoke)
	step(invoke)
	step(func() { s.observe(2500*time.Millisecond, false) }) // crosses 1 s and 2 s: one row, at 2 s
	step(func() { s.observe(600*time.Millisecond, false) })  // crosses 3 s
	step(invoke)                                             // milliseconds: no tick
	if crossed != 2 {
		t.Fatalf("%d requests crossed a tick, want 2 (timeline at %v)", crossed, s.timeline.Now())
	}

	status, body := get(t, ts.URL+"/timeseries")
	if status != http.StatusOK {
		t.Fatalf("timeseries status = %d", status)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if want := 1 + 1 + crossed; len(lines) != want { // header, baseline, one row per crossing
		t.Fatalf("timeseries rows = %d, want %d:\n%s", len(lines), want, body)
	}
	header := lines[0]
	// Labeled names are CSV-quoted in the header ("" escapes quotes).
	for _, want := range []string{
		"ts_ns", "gateway_requests_total", "fleet_down_nodes",
		"mem_sharing_efficiency", `invoke_latency{platform=""fireworks""}.p99`,
	} {
		if !strings.Contains(header, want) {
			t.Errorf("timeseries header missing %q:\n%s", want, header)
		}
	}

	status, body = get(t, ts.URL+"/timeseries?format=json")
	if status != http.StatusOK {
		t.Fatalf("timeseries json status = %d", status)
	}
	var dump struct {
		Series []struct {
			Name   string     `json:"name"`
			Points [][]string `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("timeseries json does not parse: %v", err)
	}
	found := false
	for _, sr := range dump.Series {
		if sr.Name == "gateway_requests_total" {
			found = true
			// The fifth request crossed no tick, so the last row holds the
			// four counted by the time the 3 s tick was sampled.
			want := [][]string{{"0", "0"}, {"2000000000", "3"}, {"3000000000", "4"}}
			if fmt.Sprint(sr.Points) != fmt.Sprint(want) {
				t.Fatalf("gateway_requests_total points = %v, want %v", sr.Points, want)
			}
		}
	}
	if !found {
		t.Fatal("timeseries json missing gateway_requests_total")
	}
}

func TestMemoryEndpoint(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts.URL+"/install", installBody)
	post(t, ts.URL+"/invoke/hello", `{"who": "a"}`)

	status, body := get(t, ts.URL+"/memory")
	if status != http.StatusOK {
		t.Fatalf("memory status = %d", status)
	}
	text := string(body)
	for _, want := range []string{"### node-00", "### node-01", "PSS", "snapshot page lineage"} {
		if !strings.Contains(text, want) {
			t.Errorf("memory report missing %q:\n%s", want, text)
		}
	}

	status, body = get(t, ts.URL+"/memory?format=json")
	if status != http.StatusOK {
		t.Fatalf("memory json status = %d", status)
	}
	var reports []struct {
		Node   string         `json:"node"`
		Report mem.HostReport `json:"report"`
	}
	if err := json.Unmarshal(body, &reports); err != nil {
		t.Fatalf("memory json does not parse: %v", err)
	}
	if len(reports) != 2 {
		t.Fatalf("memory json nodes = %d", len(reports))
	}
	for _, r := range reports {
		if !r.Report.PSSPageExact {
			t.Fatalf("node %s PSS sum is not page-exact: %+v", r.Node, r.Report)
		}
	}
}

func TestAlertsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	status, body := get(t, ts.URL+"/alerts")
	if status != http.StatusOK {
		t.Fatalf("alerts status = %d", status)
	}
	var out struct {
		Rules  []string         `json:"rules"`
		Firing []string         `json:"firing"`
		Alerts []map[string]any `json:"alerts"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("alerts json does not parse: %v", err)
	}
	if len(out.Rules) != 4 {
		t.Fatalf("default rules = %v", out.Rules)
	}
	if len(out.Firing) != 0 || len(out.Alerts) != 0 {
		t.Fatalf("alerts on a fresh gateway: %s", body)
	}
	wantRule := "invoke-success-rate >= 0.99 over all history"
	found := false
	for _, r := range out.Rules {
		if r == wantRule {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing rule %q in %v", wantRule, out.Rules)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts.URL+"/install", installBody)
	post(t, ts.URL+"/invoke/hello", `{"who": "fireworks"}`)

	_, body := get(t, ts.URL+"/metrics")
	text := string(body)
	for _, want := range []string{
		"vmm_snapshot_restores_total 1",
		"histogram vmm_snapshot_restore_duration",
		"mem_cow_faults_total",
		"histogram msgbus_dwell",
		`invoke_total{platform="fireworks"} 1`,
		"events_recorded_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text dump missing %q:\n%s", want, text)
		}
	}

	_, body = get(t, ts.URL+"/metrics?format=json")
	var snap map[string]any
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap["counters"]; !ok {
		t.Fatalf("json dump missing counters: %v", snap)
	}
}

func TestTraceAndEventsEndpoints(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts.URL+"/install", installBody)
	_, out := post(t, ts.URL+"/invoke/hello", `{"who": "fireworks"}`)
	traceID := int(out["trace_id"].(float64))

	// The request's trace is retrievable by id and spans gateway,
	// cluster, and core.
	status, body := get(t, ts.URL+"/trace/"+strconv.Itoa(traceID))
	if status != http.StatusOK {
		t.Fatalf("trace status = %d: %s", status, body)
	}
	text := string(body)
	for _, want := range []string{`"gateway"`, `"cluster"`, `"core"`, `"msgbus"`, `"vmm"`} {
		if !strings.Contains(text, want) {
			t.Errorf("trace missing component %s:\n%s", want, text)
		}
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("trace line does not parse: %v: %s", err, sc.Text())
		}
	}

	status, _ = get(t, ts.URL+"/trace/999999")
	if status != http.StatusNotFound {
		t.Fatalf("unknown trace status = %d", status)
	}
	status, _ = get(t, ts.URL+"/trace/bogus")
	if status != http.StatusBadRequest {
		t.Fatalf("bad trace id status = %d", status)
	}

	// Chrome export parses and carries trace events.
	status, body = get(t, ts.URL+"/events?format=chrome")
	if status != http.StatusOK {
		t.Fatalf("events status = %d", status)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &chrome); err != nil {
		t.Fatalf("chrome export does not parse: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("chrome export is empty")
	}

	// limit bounds the NDJSON dump.
	status, body = get(t, ts.URL+"/events?limit=3")
	if status != http.StatusOK {
		t.Fatalf("events limit status = %d", status)
	}
	if n := strings.Count(string(body), "\n"); n != 3 {
		t.Fatalf("limit=3 returned %d lines", n)
	}
	status, _ = get(t, ts.URL+"/events?format=xml")
	if status != http.StatusBadRequest {
		t.Fatalf("unknown format status = %d", status)
	}
}

func TestParseFaultsSpec(t *testing.T) {
	if cfg, err := parseFaultsSpec(""); cfg != nil || err != nil {
		t.Fatalf("empty spec = %v, %v; want nil, nil", cfg, err)
	}
	cfg, err := parseFaultsSpec("seed=9,rate=0.25")
	if err != nil || cfg.seed != 9 || cfg.rate != 0.25 {
		t.Fatalf("full spec = %+v, %v", cfg, err)
	}
	cfg, err = parseFaultsSpec("rate=0.5")
	if err != nil || cfg.seed != 1 || cfg.rate != 0.5 {
		t.Fatalf("rate-only spec = %+v, %v", cfg, err)
	}
	for _, bad := range []string{"seed", "seed=x", "rate=2", "burst=1"} {
		if _, err := parseFaultsSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// With -faults armed the gateway runs on the fault plane, and its
// metrics dump counts what was injected.
func TestMetricsEndpointWithFaults(t *testing.T) {
	s := newServer(2, &faultsConfig{seed: 7, rate: 0.1}, nil)
	ts := httptest.NewServer(s.mux())
	t.Cleanup(ts.Close)
	if status, out := post(t, ts.URL+"/install", installBody); status != http.StatusCreated {
		t.Fatalf("install under faults = %d: %v", status, out)
	}
	for i := 0; i < 20; i++ {
		post(t, ts.URL+"/invoke/hello", `{}`)
	}
	if _, body := get(t, ts.URL+"/metrics"); !strings.Contains(string(body), "faults_injected_total{") {
		t.Fatalf("faulted gateway's dump has no injected faults:\n%s", body)
	}
}

func TestRemoveEndpoint(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts.URL+"/install", installBody)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/functions/hello", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	status, _ := post(t, ts.URL+"/invoke/hello", `{}`)
	if status != http.StatusBadGateway {
		t.Fatalf("invoke after delete = %d", status)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/functions/hello", nil)
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete = %d", resp.StatusCode)
	}
}

// wfSpecBody is a two-step chain whose second step maps the first
// step's output into its input (docs/workflows.md format).
const wfSpecBody = `{
  "name": "greet-chain",
  "steps": [
    {"id": "classify", "function": "hello"},
    {"id": "echo", "function": "echo", "after": ["classify"],
     "input": {"msg": "$steps.classify"}}
  ]
}`

func TestWorkflowEndpoints(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts.URL+"/install", installBody)
	status, out := post(t, ts.URL+"/install", `{
	  "name": "echo",
	  "lang": "nodejs",
	  "source": "func main(params) { return params.msg; }",
	  "default_params": {"msg": "prime"}
	}`)
	if status != http.StatusCreated {
		t.Fatalf("install echo = %d: %v", status, out)
	}

	// Register the DAG, list it back.
	status, out = post(t, ts.URL+"/workflows", wfSpecBody)
	if status != http.StatusCreated || out["workflow"] != "greet-chain" {
		t.Fatalf("register = %d: %v", status, out)
	}
	status, body := get(t, ts.URL+"/workflows")
	if status != http.StatusOK {
		t.Fatalf("list = %d", status)
	}
	var listed []map[string]any
	if err := json.Unmarshal(body, &listed); err != nil {
		t.Fatal(err)
	}
	if len(listed) != 1 || listed[0]["name"] != "greet-chain" || listed[0]["dlq_depth"].(float64) != 0 {
		t.Fatalf("workflow list: %v", listed)
	}

	// Run it: both steps complete and the run's trace resolves.
	status, out = post(t, ts.URL+"/workflows/greet-chain/run", `{"who": "workflow"}`)
	if status != http.StatusOK || out["status"] != "completed" {
		t.Fatalf("run = %d: %v", status, out)
	}
	steps := out["steps"].([]any)
	if len(steps) != 2 {
		t.Fatalf("steps: %v", steps)
	}
	for _, s := range steps {
		if s.(map[string]any)["status"] != "completed" {
			t.Fatalf("step not completed: %v", s)
		}
	}
	traceID := out["trace_id"].(float64)
	if traceID == 0 {
		t.Fatalf("run has no trace id: %v", out)
	}
	status, body = get(t, ts.URL+"/trace/"+strconv.FormatUint(uint64(traceID), 10))
	if status != http.StatusOK || !strings.Contains(string(body), `"workflow"`) {
		t.Fatalf("trace %v = %d:\n%s", traceID, status, body)
	}

	// Bad registrations and unknown names are client errors.
	if status, _ = post(t, ts.URL+"/workflows", wfSpecBody); status != http.StatusBadRequest {
		t.Fatalf("duplicate register = %d", status)
	}
	if status, _ = post(t, ts.URL+"/workflows", `{"name": "", "steps": []}`); status != http.StatusBadRequest {
		t.Fatalf("invalid register = %d", status)
	}
	if status, _ = post(t, ts.URL+"/workflows/ghost/run", `{}`); status != http.StatusNotFound {
		t.Fatalf("unknown run = %d", status)
	}
	if status, _ = get(t, ts.URL+"/workflows/ghost/dlq"); status != http.StatusNotFound {
		t.Fatalf("unknown dlq = %d", status)
	}
}

func TestWorkflowDLQOverHTTP(t *testing.T) {
	ts := newTestServer(t)
	// "fixme" is not deployed yet: the step dead-letters and the run
	// stalls (the gateway engine is fail-fast without -faults).
	status, out := post(t, ts.URL+"/workflows", `{
	  "name": "frail",
	  "steps": [{"id": "only", "function": "fixme"}]
	}`)
	if status != http.StatusCreated {
		t.Fatalf("register = %d: %v", status, out)
	}
	status, out = post(t, ts.URL+"/workflows/frail/run", `{}`)
	if status != http.StatusBadGateway || out["status"] != "stalled" {
		t.Fatalf("poisoned run = %d: %v", status, out)
	}

	status, body := get(t, ts.URL+"/workflows/frail/dlq")
	if status != http.StatusOK {
		t.Fatalf("dlq = %d", status)
	}
	var dlq map[string]any
	if err := json.Unmarshal(body, &dlq); err != nil {
		t.Fatal(err)
	}
	if dlq["depth"].(float64) != 1 {
		t.Fatalf("dlq depth: %v", dlq)
	}
	rec := dlq["records"].([]any)[0].(map[string]any)
	if rec["step"] != "only" || rec["function"] != "fixme" {
		t.Fatalf("dlq record: %v", rec)
	}

	// Deploy the missing function, replay the dead letters: the
	// stalled run resumes and completes, and the queue drains.
	status, out = post(t, ts.URL+"/install", `{
	  "name": "fixme",
	  "lang": "nodejs",
	  "source": "func main(params) { return \"fixed\"; }"
	}`)
	if status != http.StatusCreated {
		t.Fatalf("install fixme = %d: %v", status, out)
	}
	status, out = post(t, ts.URL+"/workflows/frail/dlq/replay", "")
	if status != http.StatusOK {
		t.Fatalf("replay = %d: %v", status, out)
	}
	replayed := out["replayed"].([]any)
	if len(replayed) != 1 || replayed[0].(map[string]any)["status"] != "completed" {
		t.Fatalf("replayed runs: %v", replayed)
	}
	_, body = get(t, ts.URL+"/workflows/frail/dlq")
	var drained struct {
		Depth *int `json:"depth"`
	}
	if err := json.Unmarshal(body, &drained); err != nil || drained.Depth == nil || *drained.Depth != 0 {
		t.Fatalf("dlq not drained (%v):\n%s", err, body)
	}
}

func TestEventsLimitValidationAndContentType(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts.URL+"/install", installBody)
	post(t, ts.URL+"/invoke/hello", `{"who": "x"}`)

	// NDJSON responses carry the NDJSON content type.
	resp, err := http.Get(ts.URL + "/events?limit=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type = %q, want application/x-ndjson", ct)
	}

	// Non-positive and garbage limits are client errors, not silent
	// defaults.
	for _, bad := range []string{"0", "-1", "bogus", "1.5"} {
		status, body := get(t, ts.URL+"/events?limit="+bad)
		if status != http.StatusBadRequest {
			t.Errorf("limit=%s status = %d, want 400: %s", bad, status, body)
		}
	}
}

func TestInsightEndpoints(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts.URL+"/install", installBody)
	var traceID int
	for i := 0; i < 3; i++ {
		_, out := post(t, ts.URL+"/invoke/hello", `{"who": "x"}`)
		traceID = int(out["trace_id"].(float64))
	}

	// The report carries every trace's critical path and the service
	// graph: blame tables present, top entry a real site, ranked.
	status, body := get(t, ts.URL+"/insight/report")
	if status != http.StatusOK {
		t.Fatalf("report status = %d: %s", status, body)
	}
	var rep struct {
		Traces []struct {
			Trace int    `json:"trace"`
			Root  string `json:"root"`
			Total int64  `json:"total_ns"`
			Path  []map[string]any
			Blame []struct {
				Site   string `json:"site"`
				SelfNS int64  `json:"self_ns"`
			} `json:"blame"`
		} `json:"traces"`
		Graph struct {
			Nodes []map[string]any `json:"nodes"`
			Edges []struct {
				From string `json:"from"`
				To   string `json:"to"`
			} `json:"edges"`
		} `json:"graph"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	found := false
	for _, ti := range rep.Traces {
		if ti.Trace != traceID {
			continue
		}
		found = true
		if ti.Root != "gateway:POST /invoke" || ti.Total <= 0 {
			t.Errorf("critical path root=%q total=%d", ti.Root, ti.Total)
		}
		if len(ti.Blame) == 0 || !strings.Contains(ti.Blame[0].Site, ":") {
			t.Errorf("blame table: %+v", ti.Blame)
		}
		for i := 1; i < len(ti.Blame); i++ {
			if ti.Blame[i].SelfNS > ti.Blame[i-1].SelfNS {
				t.Errorf("blame not ranked: %+v", ti.Blame)
			}
		}
	}
	if !found {
		t.Errorf("report has no trace %d", traceID)
	}
	if len(rep.Graph.Nodes) == 0 || len(rep.Graph.Edges) == 0 {
		t.Errorf("graph empty: %d nodes %d edges", len(rep.Graph.Nodes), len(rep.Graph.Edges))
	}
	hasEdge := false
	for _, e := range rep.Graph.Edges {
		hasEdge = hasEdge || (e.From == "gateway" && e.To == "cluster")
	}
	if !hasEdge {
		t.Errorf("graph missing gateway→cluster edge: %+v", rep.Graph.Edges)
	}
}

func TestHistogramExemplarsResolveToTraces(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts.URL+"/install", installBody)
	for i := 0; i < 3; i++ {
		post(t, ts.URL+"/invoke/hello", `{"who": "x"}`)
	}

	_, body := get(t, ts.URL+"/metrics?format=json")
	var snap struct {
		Histograms []struct {
			Name      string `json:"name"`
			Count     uint64 `json:"count"`
			Exemplars []struct {
				Trace uint64 `json:"trace"`
			} `json:"exemplars"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	checked := 0
	for _, h := range snap.Histograms {
		if h.Count == 0 || len(h.Exemplars) == 0 {
			continue
		}
		checked++
		for _, ex := range h.Exemplars {
			if ex.Trace == 0 {
				t.Errorf("%s: zero exemplar trace", h.Name)
				continue
			}
			status, _ := get(t, ts.URL+"/trace/"+strconv.FormatUint(ex.Trace, 10))
			if status != http.StatusOK {
				t.Errorf("%s: exemplar trace %d not resolvable (%d)", h.Name, ex.Trace, status)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no histogram carried exemplars")
	}
	// The core invoke-path histograms must all carry them.
	for _, want := range []string{"invoke_latency", "fireworks_install_duration", "vmm_snapshot_restore_duration"} {
		found := false
		for _, h := range snap.Histograms {
			if strings.HasPrefix(h.Name, want) && len(h.Exemplars) > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("histogram %s* carries no exemplars", want)
		}
	}
}

// TestInstallIntegerDefaultsOverHTTP: integer default_params must reach
// install-time priming (and default-parameter invokes) as integers, the
// way /invoke bodies do — faas-fact takes n % d and fails on floats.
func TestInstallIntegerDefaultsOverHTTP(t *testing.T) {
	ts := newTestServer(t)
	fn := workloads.Fact(runtime.LangNode).Function
	body, err := json.Marshal(map[string]any{
		"name": fn.Name, "lang": fn.Lang, "source": fn.Source, "default_params": fn.DefaultParams,
	})
	if err != nil {
		t.Fatal(err)
	}
	status, out := post(t, ts.URL+"/install", string(body))
	if status != http.StatusCreated {
		t.Fatalf("install status = %d: %v", status, out)
	}
	status, out = post(t, ts.URL+"/invoke/"+fn.Name, "")
	if status != http.StatusOK {
		t.Fatalf("invoke status = %d: %v", status, out)
	}
	if out["result"] == nil {
		t.Fatalf("no result: %v", out)
	}
}

// TestOversizedBodyRejected: every body-reading route answers 413 past
// maxBodyBytes instead of buffering the request.
func TestOversizedBodyRejected(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts.URL+"/workflows", `{"name": "wf", "steps": [{"id": "a", "function": "hello"}]}`)
	// Valid JSON all the way to the cap, so only the cap can reject it.
	big := `{"pad": "` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, route := range []string{
		"/install", "/invoke/hello", "/workflows", "/workflows/wf/run",
	} {
		status, out := post(t, ts.URL+route, big)
		if status != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s: status = %d, want 413: %v", route, status, out)
		}
	}
}

// TestTrailingJSONRejected: every JSON-reading route takes exactly one
// value — anything but whitespace after it is a 400, not a request
// served on its first value — and a workflow run still takes no body.
func TestTrailingJSONRejected(t *testing.T) {
	h := newServer(2, nil, nil).mux()
	mustServe(t, h, http.StatusCreated, "POST", "/install", installBody)
	mustServe(t, h, http.StatusCreated, "POST", "/workflows", `{"name": "wf", "steps": [{"id": "a", "function": "hello"}]}`)
	for _, route := range []struct {
		path, body string
		ok         int
	}{
		{"/install", installBody, http.StatusCreated},
		{"/invoke/hello", `{"who": "x"}`, http.StatusOK},
		{"/workflows/wf/run", `{}`, http.StatusOK},
	} {
		for _, trailer := range []string{" x", "{}", " }"} {
			if rec := serve(t, h, "POST", route.path, route.body+trailer); rec.Code != http.StatusBadRequest {
				t.Errorf("POST %s %q: status = %d, want 400: %s", route.path, route.body+trailer, rec.Code, rec.Body)
			}
		}
		mustServe(t, h, route.ok, "POST", route.path, route.body+" \n")
	}
	mustServe(t, h, http.StatusOK, "POST", "/workflows/wf/run", nil)
}

// TestInstallReportsJITInOneOrder installs one body several times: the
// functions the install force-compiled are listed the same way each
// time (the code cache is a map; the reply lists it in name order).
func TestInstallReportsJITInOneOrder(t *testing.T) {
	h := newServer(1, nil, nil).mux()
	var first []string
	for i := 0; i < 6; i++ {
		var reply struct {
			JIT []string `json:"jit_compiled"`
		}
		if err := json.Unmarshal(mustServe(t, h, http.StatusCreated, "POST", "/install", installBody).Body.Bytes(), &reply); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = reply.JIT
		}
		if len(reply.JIT) < 2 || !slices.Equal(reply.JIT, first) {
			t.Fatalf("install %d lists jit_compiled %v, the first listed %v", i, reply.JIT, first)
		}
	}
}

// TestFunctionsListDuringChurn lists the functions from several clients
// while another installs and removes one: every listing must be a
// complete 200. (The handler used to collect names under one lock
// acquisition and read each report under another, and dereferenced the
// report a DELETE in between had taken away; the churning name sorts
// last, behind enough stable ones for that window to be hit.)
func TestFunctionsListDuringChurn(t *testing.T) {
	ts := newTestServer(t)
	const stable = 16
	for i := 0; i < stable; i++ {
		post(t, ts.URL+"/install", strings.Replace(installBody, `"hello"`, fmt.Sprintf(`"f%02d"`, i), 1))
	}
	churn := strings.Replace(installBody, `"hello"`, `"zz-churn"`, 1)
	done := make(chan struct{})
	var listers sync.WaitGroup
	for l := 0; l < 4; l++ {
		listers.Add(1)
		go func() {
			defer listers.Done()
			for listing := true; listing; {
				select {
				case <-done:
					listing = false // one more listing after the churn has stopped
				default:
				}
				resp, err := http.Get(ts.URL + "/functions")
				if err != nil {
					t.Errorf("GET /functions: %v", err)
					return
				}
				var fns []struct {
					Name          string `json:"name"`
					SnapshotBytes uint64 `json:"snapshot_bytes"`
				}
				err = json.NewDecoder(resp.Body).Decode(&fns)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || len(fns) < stable || len(fns) > stable+1 {
					t.Errorf("GET /functions = %d with %d functions (%v), want the %d stable ones plus at most the churning one",
						resp.StatusCode, len(fns), err, stable)
					return
				}
				for i, fn := range fns[:stable] {
					if fn.Name != fmt.Sprintf("f%02d", i) || fn.SnapshotBytes == 0 {
						t.Errorf("listing entry %d = %+v", i, fn)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if status, out := post(t, ts.URL+"/install", churn); status != http.StatusCreated {
			t.Fatalf("install %d = %d: %v", i, status, out)
		}
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/functions/zz-churn", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		resp.Body.Close()
	}
	close(done)
	listers.Wait()
}

// TestRunawayRecursionIsAnErrorNotACrash: a guest that recurses without
// bound gets the call-depth error in whichever tier it runs, through
// install (priming starts in the interpreter and tiers up mid-descent)
// and through invoke (compiled code, and compiled code whose guards fail
// at every level), and the gateway keeps serving. Compiled code used to
// recurse until the Go stack limit killed the process.
func TestRunawayRecursionIsAnErrorNotACrash(t *testing.T) {
	ts := newTestServer(t)
	status, out := post(t, ts.URL+"/install", `{
  "name": "abyss", "lang": "nodejs",
  "source": "func f(n) { return f(n + 1); }\nfunc main(params) { return f(0); }"
}`)
	if status == http.StatusCreated || !strings.Contains(fmt.Sprint(out["error"]), "call depth limit (512) exceeded in f") {
		t.Fatalf("install of a runaway guest: status %d, %v", status, out)
	}

	// Priming calls f(0, true), so f is compiled guarded on (int, bool).
	status, out = post(t, ts.URL+"/install", `{
  "name": "deep", "lang": "nodejs",
  "source": "func f(n, stop) { if (stop) { return n; } return f(n + 1, stop); }\nfunc main(params) { return f(params.start, params.stop); }",
  "default_params": {"start": 0, "stop": true}
}`)
	if status != http.StatusCreated {
		t.Fatalf("install status = %d: %v", status, out)
	}
	for _, body := range []string{
		`{"start": 0, "stop": false}`,   // guards hold: every level runs compiled
		`{"start": "s", "stop": false}`, // "s" + 1 = "s1": every level de-optimizes
	} {
		status, out = post(t, ts.URL+"/invoke/deep", body)
		if status == http.StatusOK || !strings.Contains(fmt.Sprint(out["error"]), "call depth limit (512) exceeded in f") {
			t.Fatalf("invoke %s: status %d, %v", body, status, out)
		}
	}
	status, out = post(t, ts.URL+"/invoke/deep", `{"start": 41, "stop": true}`)
	if status != http.StatusOK || out["result"] != float64(41) {
		t.Fatalf("gateway after the runaway guests: status %d, %v", status, out)
	}
}
