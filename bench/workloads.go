package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"

	rt "repro/internal/runtime"
	"repro/internal/workloads"
)

// Operation classes. The dominant class of a workload (invoke or run)
// is the one the conservation line and gateway.http.host_us are
// computed over; the others are reported by class.
const (
	classInvoke  = "invoke"
	classRun     = "run"
	classInstall = "install"
	classRemove  = "remove"
	classScrape  = "scrape"
	// classReplay is the operator's recovery of a stalled workflow run
	// (POST /workflows/{name}/dlq/replay), issued as a follow-up of the
	// run op that stalled and timed as part of it.
	classReplay = "replay"
)

// op is one generated gateway request with its oracle. The gateway (or
// its in-process mirror) sees only method, path and body.
type op struct {
	class  string
	method string
	path   string
	body   []byte
	// name is the function or workflow the op addresses (mirror routing).
	name string
	// check is the correctness oracle: it verifies status, shape and
	// result, and extracts the virtual-clock latency the reply carries.
	check func(r reply) (virtual, error)
	// followUp, when set, inspects the reply and may return one more
	// request that belongs to the same op: the op's latency then spans
	// both, and the follow-up's check decides the outcome.
	followUp func(r reply) (op, bool)
}

// workload is one traffic mix. clients and gateway flags are part of the
// benchmark definition: identical on both sides of any comparison.
type workload struct {
	name string
	// clients is the number of closed-loop clients (one connection each).
	clients int
	// warmup is the number of unmeasured ops run at the end of set-up.
	warmup int
	// faultSeed/faultRate and telemSeed/telemRate become the gateway's
	// -faults and -telem flags (zero rate = flag absent).
	faultSeed, telemSeed uint64
	faultRate, telemRate float64
	// dominant is the op class most ops belong to.
	dominant string
	// setup returns the installs/registrations every run starts with.
	setup func() []op
	// next generates op i of the seeded sequence.
	next func(s *sequence, i int) op
}

// gatewayFlags are the workload's extra fwsim flags.
func (w *workload) gatewayFlags() []string {
	var f []string
	if w.faultRate > 0 {
		f = append(f, "-faults", fmt.Sprintf("seed=%d,rate=%g", w.faultSeed, w.faultRate))
	}
	if w.telemRate > 0 {
		f = append(f, "-telem", fmt.Sprintf("seed=%d,rate=%g", w.telemSeed, w.telemRate))
	}
	return f
}

// sequence is one seeded op stream. Generation order is issue order, so
// with one client the stream (and everything the gateway derives from
// it) repeats exactly for a seed; with two clients only the interleaving
// of completions varies.
type sequence struct {
	w   *workload
	mu  sync.Mutex
	rng *rand.Rand
	i   int

	// install-churn state: the constant each rotating name currently
	// carries, and how many versions have been generated.
	churnK   [churnNames]int64
	versions int
	// workflow-storm state: the /events/stream resume cursor, fed back
	// from the last stream reply.
	cursor uint64
}

func newSequence(w *workload, seed int64) *sequence {
	return &sequence{w: w, rng: rand.New(rand.NewSource(seed))}
}

// take returns the next op and its index in the sequence, or ok=false
// once the index has reached limit (limit < 0: unbounded).
func (s *sequence) take(limit int) (i int, o op, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if limit >= 0 && s.i >= limit {
		return 0, op{}, false
	}
	i = s.i
	s.i++
	return i, s.w.next(s, i), true
}

func (s *sequence) setCursor(c uint64) {
	s.mu.Lock()
	s.cursor = c
	s.mu.Unlock()
}

var langs = [2]rt.Lang{rt.LangNode, rt.LangPython}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only marshals the benchmark's own literals
	}
	return b
}

// installOp builds a POST /install. Numeric default_params are never
// sent: the gateway decodes them as floats and integer guests then fail
// install priming (README "Known defects"); every numeric parameter
// travels per invoke instead.
func installOp(name string, lang rt.Lang, source string, defaults map[string]any) op {
	return op{
		class: classInstall, method: http.MethodPost, path: "/install", name: name,
		body: mustJSON(map[string]any{
			"name": name, "lang": string(lang), "source": source, "default_params": defaults,
		}),
		check: checkInstall(name),
	}
}

func invokeOp(name string, params map[string]any, want any) op {
	return op{
		class: classInvoke, method: http.MethodPost, path: "/invoke/" + name, name: name,
		body: mustJSON(params), check: checkInvoke(want),
	}
}

func allWorkloads() []*workload {
	return []*workload{coldstartNet(), computeMix(), installChurn(), workflowStorm()}
}

func findWorkload(name string) *workload {
	for _, w := range allWorkloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// coldstartNet: the guest does almost nothing, so the gateway, cluster
// placement, the core pipeline, snapshot restore and the msgbus hop do
// all the host work (paper Fig 6(d)). The only workload with concurrent
// requests.
func coldstartNet() *workload {
	return &workload{
		name:    "coldstart-net",
		clients: 2, warmup: 200, dominant: classInvoke,
		setup: func() []op {
			var ops []op
			for _, l := range langs {
				wl := workloads.NetLatency(l)
				ops = append(ops, installOp(wl.Name, l, wl.Source, nil))
			}
			return ops
		},
		next: func(s *sequence, _ int) op {
			return invokeOp(workloads.NetLatency(langs[s.rng.Intn(2)]).Name, map[string]any{}, "ok")
		},
	}
}

// computeMix: FaaSLang's JIT, VM and runtime do most of the host work,
// so gateway or telemetry changes must not move it and interpreter
// changes must.
func computeMix() *workload {
	return &workload{
		name:    "compute-mix",
		clients: 1, warmup: 30, dominant: classInvoke,
		setup: func() []op {
			var ops []op
			for _, l := range langs {
				f, m := workloads.Fact(l), workloads.MatrixMult(l)
				ops = append(ops, installOp(f.Name, l, f.Source, nil), installOp(m.Name, l, m.Source, nil))
			}
			return ops
		},
		next: func(s *sequence, _ int) op {
			l := langs[s.rng.Intn(2)]
			if s.rng.Intn(2) == 0 {
				n, rounds := int64(9999000+s.rng.Intn(1000)), int64(20+s.rng.Intn(60))
				return invokeOp(workloads.Fact(l).Name, map[string]any{"n": n, "rounds": rounds}, refFact(n, rounds))
			}
			n := int64(16 + s.rng.Intn(17))
			return invokeOp(workloads.MatrixMult(l).Name, map[string]any{"n": n}, refMatrix(n))
		},
	}
}

const churnNames = 8

func churnName(slot int) string { return fmt.Sprintf("churn-%d", slot) }

// churnSource is the function install-churn redeploys: k is the seeded
// constant, so every version has a different code hash and answer.
func churnSource(k int64) string {
	return fmt.Sprintf(`
func main(params) {
  let k = %d;
  let x = params.x;
  if (x == null) { x = 1; }
  http_respond(200, "churn k=" + k);
  return x * 3 + k;
}
`, k)
}

// installChurn writes the layers the other workloads read: compile,
// snapshot capture, the chunked store (invalidation, dedup, eviction)
// and whatever the gateway retains per version.
func installChurn() *workload {
	churnInstall := func(s *sequence, slot int) op {
		k := int64(1 + s.rng.Intn(1_000_000))
		s.churnK[slot] = k
		l := langs[s.versions%2]
		s.versions++
		return installOp(churnName(slot), l, churnSource(k), nil)
	}
	return &workload{
		name:    "install-churn",
		clients: 1, warmup: 200, dominant: classInvoke,
		setup: func() []op {
			var ops []op
			for slot := 0; slot < churnNames; slot++ {
				ops = append(ops, installOp(churnName(slot), langs[slot%2], churnSource(0), nil))
			}
			return ops
		},
		next: func(s *sequence, i int) op {
			// The remove at i ≡ 199 (mod 200) targets the slot the install
			// at i+1 rewrites, so no invoke ever meets a missing function.
			if i%200 == 199 {
				name := churnName(((i + 1) / 10) % churnNames)
				return op{class: classRemove, method: http.MethodDelete, path: "/functions/" + name,
					name: name, check: checkRemove(name)}
			}
			if i%10 == 0 {
				return churnInstall(s, (i/10)%churnNames)
			}
			slot, x := s.rng.Intn(churnNames), int64(s.rng.Intn(1000))
			return invokeOp(churnName(slot), map[string]any{"x": x}, x*3+s.churnK[slot])
		},
	}
}

// utterances are the five Alexa inputs with the intent (= DAG branch)
// alexa-intent must classify each into.
var utterances = [5]struct{ text, intent string }{
	{"tell me a fact", "fact"},
	{"do you know any trivia", "fact"},
	{"remind me about my appointment", "reminder"},
	{"what is on my calendar schedule", "reminder"},
	{"turn on the lights at home", "smarthome"},
}

var wageRoles = [3]string{"Engineer", "Manager", "Clerk"}

// scrapePaths rotate over the operator's three read endpoints.
var scrapePaths = [3]string{"/metrics?format=json", "/insight/report", "/events/stream?since="}

// stringDefaults keeps a built-in's string default_params and drops the
// numeric ones (see installOp).
func stringDefaults(in map[string]any) map[string]any {
	out := map[string]any{}
	for k, v := range in {
		if s, ok := v.(string); ok {
			out[k] = s
		}
	}
	return out
}

// workflowStorm runs the two declarative DAGs under 1 % injected faults
// with tail sampling on, and reads the observability stack beside
// writing it.
func workflowStorm() *workload {
	return &workload{
		name:    "workflow-storm",
		clients: 1, warmup: 200, dominant: classRun,
		faultSeed: 7, faultRate: 0.01, telemSeed: 1, telemRate: 0.1,
		setup: func() []op {
			// The DAGs' step functions; the suites list chain leaves
			// (wage-persist, the Alexa skills) before the workflow steps that
			// call them, so callers prime against deployed callees.
			steps := map[string]bool{
				workloads.NameWagePersist: true, workloads.NameAlexaFact: true,
				workloads.NameAlexaReminder: true, workloads.NameAlexaSmartHome: true,
				workloads.NameAlexaIntent: true, workloads.NameWageValidate: true,
			}
			var ops []op
			fns := append(workloads.DataAnalysis(), workloads.AlexaSkills()...)
			for _, wl := range append(fns, workloads.WorkflowFunctions()...) {
				if steps[wl.Name] {
					ops = append(ops, installOp(wl.Name, wl.Lang, wl.Source, stringDefaults(wl.DefaultParams)))
				}
			}
			for _, spec := range []any{workloads.AlexaWorkflow(), workloads.WageInsertWorkflow()} {
				ops = append(ops, op{class: classInstall, method: http.MethodPost, path: "/workflows",
					body: mustJSON(spec), check: checkStatus(http.StatusCreated)})
			}
			return ops
		},
		next: func(s *sequence, i int) op {
			if i%250 == 249 {
				path := scrapePaths[(i/250)%len(scrapePaths)]
				if path == scrapePaths[2] {
					return op{class: classScrape, method: http.MethodGet, path: path + strconv.FormatUint(s.cursor, 10), check: checkStream(s, s.cursor)}
				}
				return op{class: classScrape, method: http.MethodGet, path: path, check: checkScrape(path)}
			}
			if s.rng.Intn(2) == 0 {
				u := utterances[s.rng.Intn(len(utterances))]
				return runOp("alexa", map[string]any{"text": u.text}, alexaSteps(u.intent))
			}
			in := map[string]any{
				"id": fmt.Sprintf("w%d", i), "name": fmt.Sprintf("emp-%d", i),
				"role": wageRoles[s.rng.Intn(len(wageRoles))], "base": int64(30000 + s.rng.Intn(90000)),
			}
			return runOp("wage-ingest", in, map[string]string{"validate": "completed", "persist": "completed"})
		},
	}
}

// runOp is one workflow run. Under fault injection a run can stall (a
// step exhausts its retries, e.g. while every node is down) and park its
// dead step on the workflow's DLQ; the caller then does what an operator
// does and replays the DLQ until the run completes, so the op as a whole
// succeeds and its latency includes the recovery.
func runOp(workflow string, input map[string]any, wantSteps map[string]string) op {
	return op{
		class: classRun, method: http.MethodPost, path: "/workflows/" + workflow + "/run", name: workflow,
		body: mustJSON(input), check: checkRun(wantSteps), followUp: replayStalled(workflow, wantSteps, maxReplays),
	}
}

// maxReplays bounds the recovery of one run; crashed nodes come back
// after 25 placement ticks, which a few replays always cover.
const maxReplays = 20

func replayStalled(workflow string, wantSteps map[string]string, left int) func(reply) (op, bool) {
	return func(r reply) (op, bool) {
		runID, stalled := stalledRun(r)
		if !stalled || left == 0 {
			return op{}, false
		}
		return op{
			class: classReplay, method: http.MethodPost, path: "/workflows/" + workflow + "/dlq/replay", name: workflow,
			check: checkReplay(runID, wantSteps), followUp: replayStalled(workflow, wantSteps, left-1),
		}, true
	}
}

// alexaSteps is the expected per-step outcome of the alexa DAG for an
// intent: the classifier and the matching skill run, the other two
// branches are skipped.
func alexaSteps(intent string) map[string]string {
	steps := map[string]string{"intent": "completed", "fact": "skipped", "reminder": "skipped", "smarthome": "skipped"}
	steps[intent] = "completed"
	return steps
}
