package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/annotate"
	"repro/internal/core"
	"repro/internal/couchdb"
	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/msgbus"
	"repro/internal/platform"
	rt "repro/internal/runtime"
	"repro/internal/sandbox"
	"repro/internal/stats"
	"repro/internal/vclock"
	"repro/internal/vmm"
)

// Direct drivers: layers that sit behind concrete pointers (lang,
// snapshot/vmm, msgbus) cannot be wrapped from outside, so they are
// timed by calling their exported functions with the workload's own
// inputs.

// program is one deployed function of a workload.
type program struct {
	name     string
	lang     rt.Lang
	source   string
	defaults map[string]any
}

// installedProgram decodes the function a POST /install op deploys.
func installedProgram(o op) (program, bool) {
	if o.path != "/install" {
		return program{}, false
	}
	var req struct {
		Name, Lang, Source string
		Defaults           map[string]any `json:"default_params"`
	}
	if err := json.Unmarshal(o.body, &req); err != nil {
		return program{}, false
	}
	return program{name: req.Name, lang: rt.Lang(req.Lang), source: req.Source, defaults: req.Defaults}, true
}

// programs lists the functions a workload's set-up installs.
func programs(w *workload) map[string]program {
	out := map[string]program{}
	for _, o := range w.setup() {
		if p, ok := installedProgram(o); ok {
			out[p.name] = p
		}
	}
	return out
}

// guestCall is one guest execution to reproduce: a program and the JSON
// params it ran with.
type guestCall struct {
	prog   program
	params []byte
}

// guestCalls maps measured ops to the guest code they run: an invoke
// runs its function; a workflow run is represented by its first step
// (alexa-intent / wage-validate), which receives the run input.
func guestCalls(w *workload, ops []op) []guestCall {
	progs := programs(w)
	firstStep := map[string]string{"alexa": "alexa-intent", "wage-ingest": "wage-validate"}
	var calls []guestCall
	for _, o := range ops {
		name := o.name
		if o.class == classRun {
			name = firstStep[o.name]
		} else if o.class != classInvoke {
			continue
		}
		if p, ok := progs[name]; ok {
			calls = append(calls, guestCall{prog: p, params: o.body})
		}
	}
	return calls
}

// bareRuntime loads a program into a runtime with the platform natives
// bound to throw-away substrates: the guest code alone, no platform.
func bareRuntime(p program) (*rt.Runtime, error) {
	r := rt.New(p.lang, vclock.New())
	r.Boot()
	binding := &platform.NativeBinding{
		Profile: sandbox.Profiles(sandbox.ClassFirecracker),
		FS:      fs.NewMemFS(),
		Couch:   couchdb.NewServer(),
		Inv:     platform.NewInvocation(p.name),
	}
	binding.Install(r)
	if err := r.LoadModule(p.source); err != nil {
		return nil, fmt.Errorf("bare runtime %s: %w", p.name, err)
	}
	r.ForceJITAll()
	return r, nil
}

// langExec times the workload's guest executions in bare runtimes and
// returns the median µs per call and the mean heap allocations per call.
func langExec(calls []guestCall) (medianUS, allocsPerCall float64, err error) {
	if len(calls) == 0 {
		return 0, 0, nil
	}
	runtimes := map[string]*rt.Runtime{}
	var us []float64
	var mallocs uint64
	var ms0, ms1 runtime.MemStats
	for _, c := range calls {
		r := runtimes[c.prog.name]
		if r == nil {
			if r, err = bareRuntime(c.prog); err != nil {
				return 0, 0, err
			}
			runtimes[c.prog.name] = r
		}
		params, err := rt.DecodeJSON(c.params)
		if err != nil {
			return 0, 0, err
		}
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		_, err = r.Call("main", params)
		us = append(us, float64(time.Since(start))/1e3)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return 0, 0, fmt.Errorf("bare %s: %w", c.prog.name, err)
		}
		mallocs += ms1.Mallocs - ms0.Mallocs
	}
	return stats.Percentile(us, 50), float64(mallocs) / float64(len(calls)), nil
}

// langCompile times parse + annotate + bytecode + JIT of every source a
// workload installs and returns the median µs per source.
func langCompile(sources []program) (float64, error) {
	var us []float64
	for _, p := range sources {
		start := time.Now()
		ann, err := annotate.Annotate(p.source, annotate.Options{})
		if err != nil {
			return 0, fmt.Errorf("annotate %s: %w", p.name, err)
		}
		r := rt.New(p.lang, vclock.New())
		r.Boot()
		if err := r.LoadModule(ann.Source); err != nil {
			return 0, fmt.Errorf("compile %s: %w", p.name, err)
		}
		r.ForceJITAll()
		us = append(us, float64(time.Since(start))/1e3)
	}
	return stats.Percentile(us, 50), nil
}

// coldStart is the median host µs of each substrate step of a Fireworks
// cold start, driven directly in the order core's pipeline runs them.
type coldStart struct {
	restoreUS float64 // snapshot.Store.Get + Hypervisor.Restore
	reviveUS  float64 // runtime.NewFromSnapshot
	dirtyUS   float64 // the CoW faults of one execution (MicroVM.DirtyKind)
	stopUS    float64 // MicroVM.Stop, which frees the dirtied space
}

// coldStartLayers installs the workload's functions on a private host
// and replays, per sampled call, what core does around the guest
// execution: fetch and restore the snapshot, revive the runtime, dirty
// the heap (and, where the runtime duplicates it, the JIT code) as one
// execution does, stop the VM.
func coldStartLayers(progs map[string]program, calls []guestCall) (coldStart, error) {
	if len(calls) == 0 {
		return coldStart{}, nil
	}
	env := platform.NewEnv(platform.EnvConfig{})
	fw := core.New(env, core.Options{})
	for _, p := range progs {
		if _, err := fw.Install(platform.Function{Name: p.name, Source: p.source, Lang: p.lang, DefaultParams: p.defaults}); err != nil {
			return coldStart{}, fmt.Errorf("cold-start driver: %w", err)
		}
	}
	var restore, revive, dirty, stop []float64
	lap := func(dst *[]float64, start time.Time) time.Time {
		now := time.Now()
		*dst = append(*dst, float64(now.Sub(start))/1e3)
		return now
	}
	for _, c := range calls {
		clock := vclock.New()
		t := time.Now()
		snap, err := env.Snaps.Get(c.prog.name)
		if err != nil {
			return coldStart{}, err
		}
		vm, err := env.HV.Restore(snap, vmm.RestoreOptions{}, clock)
		if err != nil {
			return coldStart{}, err
		}
		t = lap(&restore, t)
		r, err := rt.NewFromSnapshot(snap.GuestState.(*rt.SnapshotTemplate), clock)
		if err != nil {
			return coldStart{}, err
		}
		t = lap(&revive, t)
		vm.DirtyKind(mem.KindHeap, r.Model.HeapPerInvokeBytes)
		if r.Model.JITCodeDuplication > 1 {
			vm.DirtyKind(mem.KindJITCode, r.JITCodeBytes())
		}
		t = lap(&dirty, t)
		if err := vm.Stop(); err != nil {
			return coldStart{}, err
		}
		lap(&stop, t)
	}
	return coldStart{
		restoreUS: stats.Percentile(restore, 50), reviveUS: stats.Percentile(revive, 50),
		dirtyUS: stats.Percentile(dirty, 50), stopUS: stats.Percentile(stop, 50),
	}, nil
}

// msgbusRoundtrip times the per-invocation parameter hop: create the
// topic, produce the op's params, consume them, delete the topic.
func msgbusRoundtrip(calls []guestCall) (float64, error) {
	if len(calls) == 0 {
		return 0, nil
	}
	bus := msgbus.NewBroker()
	var us []float64
	for i, c := range calls {
		topic := fmt.Sprintf("bench-%d", i)
		start := time.Now()
		if err := bus.CreateTopic(topic, 1); err != nil {
			return 0, err
		}
		if _, _, err := bus.Produce(topic, "k", c.params); err != nil {
			return 0, err
		}
		if _, err := bus.ConsumeLatest(topic); err != nil {
			return 0, err
		}
		bus.DeleteTopic(topic)
		us = append(us, float64(time.Since(start))/1e3)
	}
	return stats.Percentile(us, 50), nil
}

// timeMedian runs fn n times and returns the median duration in µs.
func timeMedian(n int, fn func()) float64 {
	us := make([]float64, n)
	for i := range us {
		start := time.Now()
		fn()
		us[i] = float64(time.Since(start)) / 1e3
	}
	return stats.Percentile(us, 50)
}
