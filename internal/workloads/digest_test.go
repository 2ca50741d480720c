package workloads

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/couchdb"
	"repro/internal/fs"
	"repro/internal/lang"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/sandbox"
	"repro/internal/vclock"
)

// guestDigest is what one workload's main computes and costs in a bare
// runtime: the ops its VM executed, the virtual clock after main
// returned (boot, module load, JIT compiles and deopts, host I/O and
// chained calls included), and the formatted result or error.
type guestDigest struct {
	steps  int64
	clock  time.Duration
	result string
}

// runGuest runs w's main with its default params in a fresh runtime on
// clock, with the platform natives bound to substrates shared by the
// whole chain; invoke() runs the named workload the same way, on the
// same clock.
func runGuest(t *testing.T, w Workload, params lang.Value, clock *vclock.Clock, fsys fs.FS, couch *couchdb.Server) (guestDigest, lang.Value) {
	t.Helper()
	rt := runtime.New(w.Lang, clock)
	rt.Boot()
	inv := platform.NewInvocation(w.Name)
	inv.Clock = clock
	binding := &platform.NativeBinding{
		Profile: sandbox.Profiles(sandbox.ClassFirecracker),
		FS:      fsys,
		Couch:   couch,
		Inv:     inv,
		Invoke: func(name string, params lang.Value, _ *platform.Invocation) (*platform.Invocation, error) {
			for _, callee := range All() {
				if callee.Name == name {
					_, res := runGuest(t, callee, params, clock, fsys, couch)
					return &platform.Invocation{Result: res}, nil
				}
			}
			return nil, fmt.Errorf("no function %q", name)
		},
	}
	binding.Install(rt)
	if err := rt.LoadModule(w.Source); err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	res, err := rt.Call("main", params)
	d := guestDigest{steps: rt.VM.Steps(), clock: clock.Now(), result: lang.Format(res)}
	if err != nil {
		d.result = "error: " + err.Error()
	}
	return d, res
}

// TestGuestDigests pins, for every workload run with its default params,
// the absolute op count, virtual clock and result the guest engine
// produces. An engine change (translation, fusion, metering) that moves
// any of them changes what the simulation reports.
func TestGuestDigests(t *testing.T) {
	// The readings of an engine that books each op as it runs: charging
	// by the block and fusing ops into one step must reproduce them.
	want := map[string]guestDigest{
		"faas-fact-nodejs":        {777756, 263209526, "311"},
		"faas-matrix-mult-nodejs": {6320351, 336599914, "287058"},
		"faas-diskio-nodejs":      {3034, 272179396, "1024000"},
		"faas-netlatency-nodejs":  {13, 260110598, "ok"},
		"faas-fact-python":        {777756, 185722235, "311"},
		"faas-matrix-mult-python": {6320351, 729067365, "287058"},
		"faas-diskio-python":      {3034, 142482100, "1024000"},
		"faas-netlatency-python":  {13, 130114610, "ok"},
		"alexa-frontend":          {1114, 520320624, `{"intent": "fact", "reply": "Honey never spoils."}`},
		"alexa-fact":              {422, 260029217, "Honey never spoils."},
		"alexa-reminder":          {60, 260763831, "saved reminder reminder-prime"},
		"alexa-smarthome":         {173, 262230046, "light=off door=off tv=off"},
		"wage-insert":             {87, 520986058, `{"_id": "wage-p0", "_rev": "1-d987a3fa", "base": 52000, "id": "p0", "name": "prime", "role": "engineer", "type": "wage"}`},
		"wage-persist":            {20, 260740560, `{"_id": "wage-p0", "_rev": "1-d987a3fa", "base": 52000, "id": "p0", "name": "prime", "role": "engineer", "type": "wage"}`},
		"wage-analyze":            {41, 521273760, "stats for 0 employees stored as 1-3101c09a"},
		"wage-report":             {32, 260744309, "stats for 0 employees stored as 1-3101c09a"},
	}
	if len(want) != len(All()) {
		t.Fatalf("%d digests for %d workloads", len(want), len(All()))
	}
	for _, w := range All() {
		clock := vclock.New()
		got, _ := runGuest(t, w, platform.MustParams(w.DefaultParams), clock, fs.NewMemFS(), couchdb.NewServer())
		if got != want[w.Name] {
			t.Errorf("%s: got %+v, want %+v", w.Name, got, want[w.Name])
		}
	}
}
