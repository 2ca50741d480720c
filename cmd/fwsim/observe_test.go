package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	rt "repro/internal/runtime"
	"repro/internal/telemetry"
	"repro/internal/timeseries"
	"repro/internal/workloads"
)

// serve runs one request through the gateway's handlers in process.
func serve(t testing.TB, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var raw []byte
	switch b := body.(type) {
	case nil:
	case string:
		raw = []byte(b)
	default:
		var err error
		if raw, err = json.Marshal(b); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(raw)))
	return rec
}

// mustServe is serve that fails the test on an unexpected status.
func mustServe(t testing.TB, h http.Handler, want int, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	rec := serve(t, h, method, path, body)
	if rec.Code != want {
		t.Fatalf("%s %s = %d, want %d: %s", method, path, rec.Code, want, rec.Body)
	}
	return rec
}

func install(t testing.TB, h http.Handler, name string, lang rt.Lang, source string, defaults map[string]any) {
	t.Helper()
	mustServe(t, h, http.StatusCreated, "POST", "/install", map[string]any{
		"name": name, "lang": string(lang), "source": source, "default_params": defaults,
	})
}

// gridShape is one traffic shape of the gateway: what it deploys, and
// its i-th operation, which serves at least one request.
type gridShape struct {
	name   string
	faults *faultsConfig
	telem  *telemetry.Config
	setup  func(t *testing.T, h http.Handler)
	op     func(t *testing.T, h http.Handler, i int)
}

// stringDefaults keeps a workload's string default_params: numeric ones
// travel per request (install primes with what it is given).
func stringDefaults(in map[string]any) map[string]any {
	out := map[string]any{}
	for k, v := range in {
		if s, ok := v.(string); ok {
			out[k] = s
		}
	}
	return out
}

func churnSource(k int) string {
	return fmt.Sprintf(`func main(params) {
  let k = %d;
  let x = params.x;
  if (x == null) { x = 1; }
  http_respond(200, "k=" + k);
  return x * 3 + k;
}`, k)
}

var gridShapes = []gridShape{
	{
		name: "invoke",
		setup: func(t *testing.T, h http.Handler) {
			for _, l := range []rt.Lang{rt.LangNode, rt.LangPython} {
				wl := workloads.NetLatency(l)
				install(t, h, wl.Name, l, wl.Source, nil)
			}
		},
		op: func(t *testing.T, h http.Handler, i int) {
			l := []rt.Lang{rt.LangNode, rt.LangPython}[i%2]
			mustServe(t, h, http.StatusOK, "POST", "/invoke/"+workloads.NetLatency(l).Name, "{}")
		},
	},
	{
		name: "compute",
		setup: func(t *testing.T, h http.Handler) {
			f, m := workloads.Fact(rt.LangNode), workloads.MatrixMult(rt.LangPython)
			install(t, h, f.Name, f.Lang, f.Source, nil)
			install(t, h, m.Name, m.Lang, m.Source, nil)
		},
		op: func(t *testing.T, h http.Handler, i int) {
			if i%2 == 0 {
				mustServe(t, h, http.StatusOK, "POST", "/invoke/"+workloads.Fact(rt.LangNode).Name,
					map[string]any{"n": 9991 + i%7, "rounds": 2})
				return
			}
			mustServe(t, h, http.StatusOK, "POST", "/invoke/"+workloads.MatrixMult(rt.LangPython).Name,
				map[string]any{"n": 4 + i%5})
		},
	},
	{
		name: "redeploy",
		setup: func(t *testing.T, h http.Handler) {
			for slot := 0; slot < 4; slot++ {
				install(t, h, fmt.Sprint("churn-", slot), rt.LangNode, churnSource(0), nil)
			}
		},
		op: func(t *testing.T, h http.Handler, i int) {
			name := fmt.Sprint("churn-", i%4)
			if i%10 == 9 {
				install(t, h, name, rt.LangNode, churnSource(i), nil)
			}
			mustServe(t, h, http.StatusOK, "POST", "/invoke/"+name, map[string]any{"x": i})
		},
	},
	{
		name:   "workflow-faults",
		faults: &faultsConfig{seed: 7, rate: 0.01},
		telem:  &telemetry.Config{Seed: 1, KeepRate: 0.1},
		setup: func(t *testing.T, h http.Handler) {
			steps := map[string]bool{
				workloads.NameWagePersist: true, workloads.NameAlexaFact: true,
				workloads.NameAlexaReminder: true, workloads.NameAlexaSmartHome: true,
				workloads.NameAlexaIntent: true, workloads.NameWageValidate: true,
			}
			fns := append(workloads.DataAnalysis(), workloads.AlexaSkills()...)
			for _, wl := range append(fns, workloads.WorkflowFunctions()...) {
				if steps[wl.Name] {
					install(t, h, wl.Name, wl.Lang, wl.Source, stringDefaults(wl.DefaultParams))
				}
			}
			for _, spec := range []any{workloads.AlexaWorkflow(), workloads.WageInsertWorkflow()} {
				mustServe(t, h, http.StatusCreated, "POST", "/workflows", spec)
			}
		},
		op: func(t *testing.T, h http.Handler, i int) {
			name, input := "alexa", map[string]any{"text": []string{"tell me a fact", "remind me about my appointment", "turn on the lights"}[i%3]}
			if i%2 == 1 {
				name, input = "wage-ingest", map[string]any{"id": fmt.Sprint("w", i), "name": fmt.Sprint("emp-", i), "role": "Engineer", "base": 30000 + i}
			}
			// A run that stalls under a fault is replayed, as an operator
			// would; every replayed run is a request of its own.
			rec := serve(t, h, "POST", "/workflows/"+name+"/run", input)
			for replays := 0; rec.Code != http.StatusOK; replays++ {
				if replays == 20 {
					t.Fatalf("%s run %d still not completed: %s", name, i, rec.Body)
				}
				rec = mustServe(t, h, http.StatusOK, "POST", "/workflows/"+name+"/dlq/replay", nil)
				var out struct{ Replayed []runSummary }
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out.Replayed) == 0 || out.Replayed[len(out.Replayed)-1].Status != "completed" {
					rec.Code = http.StatusBadGateway
				}
			}
		},
	},
}

// TestObserveSamplesOnTheGrid is the counted gate on the gateway's own
// telemetry work: on every traffic shape, the sampler runs at most once
// per ten requests (once per virtual second the timeline crosses, and
// requests take milliseconds), and its rings stay inside their byte
// budget while the request count doubles.
func TestObserveSamplesOnTheGrid(t *testing.T) {
	const requests = 2000
	for _, sh := range gridShapes {
		t.Run(sh.name, func(t *testing.T) {
			s := newServer(3, sh.faults, sh.telem)
			h := s.mux()
			sh.setup(t, h)
			var half timeseries.SamplerStats
			for i := 0; s.requests.Value() < requests; i++ {
				sh.op(t, h, i)
				if half.Series == 0 && s.requests.Value() >= requests/2 {
					half = s.sampler.Stats()
				}
			}
			full := s.sampler.Stats()
			reqs := s.requests.Value()
			samples := s.c.Metrics().Counter("timeseries_samples_total").Value()
			t.Logf("%d requests, %d samples over %v of timeline; sampler holds %d of %d bytes",
				reqs, samples, s.timeline.Now(), full.ResidentBytes, full.BudgetBytes)
			if ratio := float64(samples) / float64(reqs); ratio > 0.1 {
				t.Fatalf("%d samples for %d requests (%.3f per request), want <= 0.1", samples, reqs, ratio)
			}
			for _, st := range []timeseries.SamplerStats{half, full} {
				if st.ResidentBytes <= 0 || st.ResidentBytes > st.BudgetBytes {
					t.Fatalf("sampler holds %d bytes against a budget of %d", st.ResidentBytes, st.BudgetBytes)
				}
			}
			if full.Series != half.Series || full.BudgetBytes != half.BudgetBytes {
				t.Fatalf("budget moved with the request count: %d series, %d bytes at %d requests; %d, %d at %d",
					half.Series, half.BudgetBytes, requests/2, full.Series, full.BudgetBytes, reqs)
			}
		})
	}
}

// Handlers finish in any order, but the grid's points are recorded in
// tick order, once per tick, and the newest tick the timeline reached
// is always sampled.
func TestTicksStayOrderedUnderConcurrentRequests(t *testing.T) {
	s := newServer(1, nil, nil)
	const workers, perWorker = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.observe(time.Duration(7+w*11+i%13)*time.Millisecond, i%50 == 0)
			}
		}(w)
	}
	wg.Wait()
	var points []timeseries.Point
	for _, sr := range s.sampler.Snapshot() {
		if sr.Name == "gateway_requests_total" {
			points = sr.Points
		}
	}
	samples := s.c.Metrics().Counter("timeseries_samples_total").Value()
	if int64(len(points)) != samples || len(points) < 2 {
		t.Fatalf("%d points for %d samples", len(points), samples)
	}
	for i, p := range points {
		if p.TS%samplePeriod != 0 || (i > 0 && (p.TS <= points[i-1].TS || p.Value < points[i-1].Value)) {
			t.Fatalf("point %d of %v is off the grid or out of order", i, points)
		}
	}
	if now, last := s.timeline.Now(), points[len(points)-1].TS; last != now-now%samplePeriod {
		t.Fatalf("last point at %v, timeline at %v", last, now)
	}
}

// oldLatencyMap is how the gateway rendered a latency breakdown as a
// map before replies were typed.
func oldLatencyMap(l latency) map[string]string {
	return map[string]string{"start-up": l.StartUp, "exec": l.Exec, "others": l.Others, "total": l.Total}
}

// oldRunMap is runSummary as the map the gateway used to answer with.
func oldRunMap(r runSummary) map[string]any {
	steps := make([]map[string]any, 0)
	for _, st := range r.Steps {
		entry := map[string]any{"id": st.ID, "function": st.Function, "status": st.Status, "attempts": st.Attempts}
		if st.Error != "" {
			entry["error"] = st.Error
		}
		steps = append(steps, entry)
	}
	return map[string]any{
		"run": r.Run, "workflow": r.Workflow, "status": r.Status, "steps": steps,
		"trace_id": r.TraceID, "latency": oldLatencyMap(r.Latency),
	}
}

// pinBody fails unless body is json.Marshal(old) plus the encoder's
// newline: the typed reply sends exactly the bytes the map did.
func pinBody(t *testing.T, what string, body []byte, old any) {
	t.Helper()
	want, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(want)+"\n" {
		t.Fatalf("%s body differs from the old map's encoding:\n got %s\nwant %s", what, body, want)
	}
}

// The invoke and workflow-run replies are typed structs whose bodies
// are byte-equal to json.Marshal of the maps they replaced (compact,
// keys sorted), so every client that parsed the maps reads the same
// bytes.
func TestReplyBodiesMatchTheOldMaps(t *testing.T) {
	s := newServer(2, nil, nil)
	h := s.mux()
	install(t, h, "pin", rt.LangNode, `func main(params) {
  print("serving", params.who);
  http_respond(201, "<made & kept>");
  return {"who": params.who, "n": [1, 2.5, "a\"b"]};
}`, nil)
	install(t, h, "plain", rt.LangNode, `func main(params) { return 7; }`, nil)
	for _, fn := range []string{"pin", "plain"} {
		body := mustServe(t, h, http.StatusOK, "POST", "/invoke/"+fn, `{"who": "<x>"}`).Body.Bytes()
		var r invokeReply
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		if fn == "pin" && (r.Response == nil || r.Logs == "" || !strings.Contains(string(r.Result), "who")) {
			t.Fatalf("pin reply lacks a response, logs or result: %s", body)
		}
		pinBody(t, "invoke "+fn, body, map[string]any{
			"result": r.Result, "response": r.Response, "latency": oldLatencyMap(r.Latency),
			"sandbox": r.Sandbox, "node": r.Node, "trace_id": r.TraceID, "logs": r.Logs,
		})
	}

	// A run that stalls (its step's function is missing) carries a step
	// error; replayed after the deploy, it completes.
	mustServe(t, h, http.StatusCreated, "POST", "/workflows",
		`{"name": "pinned", "steps": [{"id": "a", "function": "plain"}, {"id": "b", "function": "later", "after": ["a"]}]}`)
	body := mustServe(t, h, http.StatusBadGateway, "POST", "/workflows/pinned/run", `{}`).Body.Bytes()
	var stalled runSummary
	if err := json.Unmarshal(body, &stalled); err != nil {
		t.Fatal(err)
	}
	if stalled.Status != "stalled" || len(stalled.Steps) != 2 || stalled.Steps[1].Error == "" {
		t.Fatalf("stalled run = %s", body)
	}
	pinBody(t, "stalled run", body, oldRunMap(stalled))

	install(t, h, "later", rt.LangNode, `func main(params) { return "late"; }`, nil)
	body = mustServe(t, h, http.StatusOK, "POST", "/workflows/pinned/dlq/replay", nil).Body.Bytes()
	var replay struct {
		Workflow string       `json:"workflow"`
		Replayed []runSummary `json:"replayed"`
	}
	if err := json.Unmarshal(body, &replay); err != nil || len(replay.Replayed) != 1 || replay.Replayed[0].Status != "completed" {
		t.Fatalf("replay = %s (%v)", body, err)
	}
	pinBody(t, "replay", body, map[string]any{"workflow": replay.Workflow, "replayed": []map[string]any{oldRunMap(replay.Replayed[0])}})

	body = mustServe(t, h, http.StatusOK, "POST", "/workflows/pinned/run", `{}`).Body.Bytes()
	var done runSummary
	if err := json.Unmarshal(body, &done); err != nil {
		t.Fatal(err)
	}
	pinBody(t, "completed run", body, oldRunMap(done))
}
