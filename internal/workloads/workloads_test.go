package workloads

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/couchdb"
	"repro/internal/lang"
	"repro/internal/platform"
	"repro/internal/runtime"
)

func TestAllWorkloadsValidate(t *testing.T) {
	all := All()
	if len(all) != 16 { // 4 FaaSdom x 2 langs + 4 Alexa + 4 data analysis
		t.Fatalf("workloads = %d", len(all))
	}
	for _, w := range all {
		fn := w.Function
		if _, err := platform.Validate(&fn); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if w.Description == "" || w.Suite == "" {
			t.Errorf("%s: missing metadata", w.Name)
		}
	}
}

func TestFaaSdomNaming(t *testing.T) {
	node := FaaSdom(runtime.LangNode)
	py := FaaSdom(runtime.LangPython)
	if node[0].Name != "faas-fact-nodejs" || py[0].Name != "faas-fact-python" {
		t.Fatalf("names: %s / %s", node[0].Name, py[0].Name)
	}
	if node[0].Source != py[0].Source {
		t.Fatal("same benchmark differs across languages")
	}
}

// runOnOpenWhisk executes a workload end-to-end on the container
// baseline and returns the invocation.
func runOnOpenWhisk(t *testing.T, w Workload, params map[string]any) *platform.Invocation {
	t.Helper()
	env := platform.NewEnv(platform.EnvConfig{})
	p := platform.NewOpenWhisk(env)
	if _, err := p.Install(w.Function); err != nil {
		t.Fatal(err)
	}
	inv, err := p.Invoke(w.Name, platform.MustParams(params), platform.InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return inv
}

func TestFactComputesFactors(t *testing.T) {
	// 2^5 * 3 = 96: factorize yields [2,2,2,2,2,3] = 6 factors; with
	// rounds=1 the total is 6.
	inv := runOnOpenWhisk(t, Fact(runtime.LangNode), map[string]any{"n": 96, "rounds": 1})
	if inv.Result != int64(6) {
		t.Fatalf("fact(96) factors = %v, want 6", inv.Result)
	}
	if !strings.Contains(inv.Response.Body, "factored 1 ints, 6 factors") {
		t.Fatalf("body = %q", inv.Response.Body)
	}
}

func TestMatrixMultChecksum(t *testing.T) {
	// Verify the FaaSLang matrix result against a Go reference for a
	// small n.
	const n = 5
	build := func(seed int64) [][]int64 {
		m := make([][]int64, n)
		for i := range m {
			m[i] = make([]int64, n)
			for j := range m[i] {
				m[i][j] = (int64(i)*31 + int64(j)*17 + seed) % 97
			}
		}
		return m
	}
	a, b := build(3), build(7)
	var c00, cNN int64
	for k := 0; k < n; k++ {
		c00 += a[0][k] * b[k][0]
		cNN += a[n-1][k] * b[k][n-1]
	}
	want := c00 + cNN

	inv := runOnOpenWhisk(t, MatrixMult(runtime.LangNode), map[string]any{"n": n})
	if inv.Result != want {
		t.Fatalf("matrix check = %v, want %d", inv.Result, want)
	}
}

func TestDiskIOReadsBackWrites(t *testing.T) {
	inv := runOnOpenWhisk(t, DiskIO(runtime.LangNode), map[string]any{"iterations": 8})
	if inv.Result != int64(8*10240) {
		t.Fatalf("bytes = %v", inv.Result)
	}
}

func TestNetLatencyBody(t *testing.T) {
	inv := runOnOpenWhisk(t, NetLatency(runtime.LangNode), nil)
	if inv.Response == nil || inv.Response.Status != 200 {
		t.Fatalf("response: %+v", inv.Response)
	}
	if len(inv.Response.Body) != 79 {
		t.Fatalf("body length = %d, want 79 (paper's tiny response)", len(inv.Response.Body))
	}
}

// installApp installs a chain app on Fireworks (callees before callers).
func installApp(t *testing.T, fw *core.Framework, ws []Workload) {
	t.Helper()
	for i := len(ws) - 1; i >= 0; i-- {
		if _, err := fw.Install(ws[i].Function); err != nil {
			t.Fatalf("install %s: %v", ws[i].Name, err)
		}
	}
}

func TestAlexaIntentDispatch(t *testing.T) {
	env := platform.NewEnv(platform.EnvConfig{})
	fw := core.New(env, core.Options{})
	installApp(t, fw, AlexaSkills())

	cases := []struct {
		text   string
		intent string
	}{
		{"tell me a fun fact", "fact"},
		{"remind me to call the dentist", "reminder"},
		{"turn on the lights at home", "smarthome"},
	}
	for _, tc := range cases {
		inv, err := fw.Invoke(NameAlexaFrontend,
			platform.MustParams(map[string]any{"text": tc.text, "action": "status",
				"id": "t1", "item": "x", "place": "y", "url": "z"}),
			platform.InvokeOptions{})
		if err != nil {
			t.Fatalf("%q: %v", tc.text, err)
		}
		m := inv.Result.(*lang.Map)
		if m.Items["intent"] != tc.intent {
			t.Errorf("%q classified as %v, want %s", tc.text, m.Items["intent"], tc.intent)
		}
	}
}

func TestAlexaReminderPersistsToCouch(t *testing.T) {
	env := platform.NewEnv(platform.EnvConfig{})
	fw := core.New(env, core.Options{})
	installApp(t, fw, AlexaSkills())
	_, err := fw.Invoke(NameAlexaReminder,
		platform.MustParams(map[string]any{"action": "add", "id": "r1", "item": "dentist",
			"place": "clinic", "url": "https://cal/r1"}),
		platform.InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := env.Couch.DB("reminders")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.Get("reminder-r1")
	if err != nil {
		t.Fatal(err)
	}
	if doc["item"] != "dentist" || doc["place"] != "clinic" {
		t.Fatalf("doc = %v", doc)
	}
	// Listing counts both the priming reminder and r1.
	inv, err := fw.Invoke(NameAlexaReminder,
		platform.MustParams(map[string]any{"action": "list"}), platform.InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(inv.Result.(string), "reminders") {
		t.Fatalf("list result = %v", inv.Result)
	}
}

func TestSmartHomeToggle(t *testing.T) {
	env := platform.NewEnv(platform.EnvConfig{})
	fw := core.New(env, core.Options{})
	installApp(t, fw, AlexaSkills())
	inv, err := fw.Invoke(NameAlexaSmartHome,
		platform.MustParams(map[string]any{"action": "toggle", "device": "light"}),
		platform.InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(inv.Result.(string), "light=on") {
		t.Fatalf("status = %v", inv.Result)
	}
	inv2, _ := fw.Invoke(NameAlexaSmartHome,
		platform.MustParams(map[string]any{"action": "toggle", "device": "light"}),
		platform.InvokeOptions{})
	if !strings.Contains(inv2.Result.(string), "light=off") {
		t.Fatalf("second toggle = %v", inv2.Result)
	}
}

func TestDataAnalysisEndToEnd(t *testing.T) {
	env := platform.NewEnv(platform.EnvConfig{})
	fw := core.New(env, core.Options{})
	installApp(t, fw, DataAnalysis())

	// Insert three employees through the chain.
	people := []map[string]any{
		{"name": "ada", "id": "e1", "role": "Engineer", "base": 60000},
		{"name": "grace", "id": "e2", "role": "Manager", "base": 100000},
		{"name": "alan", "id": "e3", "role": "Engineer", "base": 40000},
	}
	for _, p := range people {
		inv, err := fw.Invoke(NameWageInsert, platform.MustParams(p), platform.InvokeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if inv.Response.Status != 200 {
			t.Fatalf("insert response: %+v", inv.Response)
		}
	}
	// Invalid record is rejected with a 400.
	bad, err := fw.Invoke(NameWageInsert,
		platform.MustParams(map[string]any{"name": "x", "id": "e9", "role": "r", "base": -5}),
		platform.InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Response.Status != 400 {
		t.Fatalf("invalid record status = %d", bad.Response.Status)
	}

	// Run the triggered analysis chain.
	if _, err := fw.Invoke(NameWageAnalyze, platform.MustParams(map[string]any{"trigger": "t"}),
		platform.InvokeOptions{}); err != nil {
		t.Fatal(err)
	}
	statsDB, err := env.Couch.DB("wage-stats")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := statsDB.Get("stats-latest")
	if err != nil {
		t.Fatal(err)
	}
	// 3 real employees + the priming record.
	employees := doc["employees"]
	if employees != int64(4) && employees != float64(4) {
		t.Fatalf("employees = %v (%T)", employees, employees)
	}
	byRole, ok := doc["by_role"].(map[string]any)
	if !ok {
		t.Fatalf("by_role = %T", doc["by_role"])
	}
	if _, ok := byRole["engineer"]; !ok {
		t.Fatalf("roles = %v", byRole)
	}

	// Verify the tax/bonus arithmetic for one employee against Go.
	// ada: base 60000, engineer bonus 15000 -> gross 75000.
	// tax: (75000-50000)*0.30 + 50000*0.15 = 7500 + 7500 = 15000.
	// net = 60000.
	eng := byRole["engineer"].(map[string]any)
	count := toInt(eng["count"])
	if count != 3 { // ada, alan, priming record
		t.Fatalf("engineer count = %d", count)
	}
}

func toInt(v any) int64 {
	switch v := v.(type) {
	case int64:
		return v
	case float64:
		return int64(v)
	default:
		return -1
	}
}

// TestDBTriggeredChain wires the CouchDB change feed to the analysis
// chain exactly as Figure 8(b) draws it: inserting a wage triggers the
// analysis automatically.
func TestDBTriggeredChain(t *testing.T) {
	env := platform.NewEnv(platform.EnvConfig{})
	fw := core.New(env, core.Options{})
	installApp(t, fw, DataAnalysis())

	// The Cloud trigger: on every wage insert, run the analysis chain.
	triggered := 0
	env.Couch.CreateDB("wages").Subscribe(func(c couchdb.Change) {
		if c.Deleted || !strings.HasPrefix(c.ID, "wage-e") {
			return
		}
		triggered++
		if _, err := fw.Invoke(NameWageAnalyze,
			platform.MustParams(map[string]any{"trigger": c.ID}),
			platform.InvokeOptions{}); err != nil {
			t.Errorf("triggered analysis: %v", err)
		}
	})

	if _, err := fw.Invoke(NameWageInsert,
		platform.MustParams(map[string]any{"name": "ada", "id": "e1", "role": "Engineer", "base": 60000}),
		platform.InvokeOptions{}); err != nil {
		t.Fatal(err)
	}
	if triggered != 1 {
		t.Fatalf("trigger fired %d times, want 1", triggered)
	}
	statsDB, err := env.Couch.DB("wage-stats")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := statsDB.Get("stats-latest"); err != nil {
		t.Fatalf("triggered chain produced no stats: %v", err)
	}
}
