// Package core implements FIREWORKS, the paper's contribution: a
// serverless platform built on VM-level post-JIT snapshots.
//
// Install phase (§3.2-§3.3): the code annotator instruments the user
// function; a microVM boots, the runtime loads the annotated module,
// __fireworks_jit() primes and JIT-compiles every user function, and
// __fireworks_snapshot() asks the hypervisor to capture the whole guest
// — kernel, runtime, libraries, heap, and JITted machine code — right
// before the function entry point.
//
// Invoke phase (§3.4-§3.6): the invoker produces the arguments to a
// per-instance Kafka topic, sets the instance identity in MMDS, restores
// the snapshot into a fresh microVM inside its own network namespace
// (identical guest IPs are isolated by per-VM NAT), and execution
// resumes at __fireworks_continue(): fetch parameters, run the
// already-JITted entry. There is no cold/warm distinction — every start
// is a snapshot resume.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/annotate"
	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/lang/vm"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/msgbus"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/sandbox"
	"repro/internal/snapshot"
	"repro/internal/vclock"
	"repro/internal/vmm"
)

// snapshotWorkingSetBytes is the resident set a restored snapshot
// faults in before the entry point can run; it drives the ~12 ms
// Fireworks start-up.
const snapshotWorkingSetBytes = 36 << 20

// Options configures a Framework.
type Options struct {
	// REAPPrefetch enables REAP-style record-and-prefetch on restore
	// (paper §7: complementary optimization). The first restore of a
	// snapshot demand-pages and records the working set actually
	// touched (resident prefix + pages dirtied by execution, from the
	// host's fault telemetry); later restores replay the record with
	// sequential reads instead of random demand faults.
	REAPPrefetch bool
	// RetainInstances keeps restored microVMs alive after their
	// invocation completes — required by the consolidation experiments
	// (§5.4), which pack hundreds of live microVMs onto the host.
	RetainInstances bool
	// Retry guards the invocation pipeline's fallible stages (remote
	// fetch, parameter produce/consume, snapshot restore, install boot)
	// against transient faults. The zero value keeps the paper's
	// fail-fast behavior: one attempt, no backoff. When Permanent is
	// left nil, only errors faults.IsTransient recognizes are retried —
	// real failures (unknown function, image gone, store wedged) still
	// fail immediately.
	Retry faults.RetryPolicy
}

// Framework is the Fireworks serverless platform.
type Framework struct {
	env     *platform.Env
	opts    Options
	profile sandbox.Profile
	// obs holds the platform's invocation instruments.
	obs *platform.InvokeMetrics
	// retrier guards fallible pipeline stages per Options.Retry; nil
	// when retries are disabled (every stage runs exactly once).
	retrier *faults.Retrier
	// bootRetrier guards the install-time kernel boot: same policy but
	// no per-attempt deadline or budget — a healthy boot costs seconds,
	// far above the invoke path's deadline.
	bootRetrier *faults.Retrier

	mu        sync.Mutex
	fns       map[string]*installed
	instances map[string][]*Instance
	nextFcID  int
}

type installed struct {
	fn       platform.Function
	template *runtime.SnapshotTemplate
	report   *platform.InstallReport
}

// Instance is one live microVM serving (or having served) an
// invocation.
type Instance struct {
	Topic string
	VM    *vmm.MicroVM
	rt    *runtime.Runtime
}

// SustainDirty models a long-running instance dirtying additional guest
// memory over time (page cache, logging, repeated invocations); the
// consolidation experiment uses it to reproduce §5.4's measured
// footprints.
func (i *Instance) SustainDirty(bytes uint64) { i.VM.DirtyDuringExecution(bytes) }

// New creates a Fireworks framework on the shared host environment.
func New(env *platform.Env, opts Options) *Framework {
	f := &Framework{
		env:       env,
		opts:      opts,
		profile:   sandbox.Profiles(sandbox.ClassFirecracker),
		fns:       make(map[string]*installed),
		instances: make(map[string][]*Instance),
	}
	f.obs = platform.NewInvokeMetrics(env.Metrics, f.PlatformName())
	if opts.Retry.Enabled() {
		pol := opts.Retry
		if pol.Permanent == nil {
			pol.Permanent = func(err error) bool { return !faults.IsTransient(err) }
		}
		f.retrier = faults.NewRetrier(pol, env.Metrics)
		bootPol := pol
		bootPol.AttemptTimeout, bootPol.Budget = 0, 0
		f.bootRetrier = faults.NewRetrier(bootPol, env.Metrics)
	}
	return f
}

// PlatformName implements platform.Platform.
func (f *Framework) PlatformName() string { return "fireworks" }

// Install implements platform.Platform: annotate, boot, load, JIT,
// snapshot (Figure 2 steps 1-4). The report's Duration is the paper's
// §5.1 "post-JIT snapshot creation time" plus package installation.
func (f *Framework) Install(fn platform.Function) (*platform.InstallReport, error) {
	prog, err := platform.Validate(&fn)
	if err != nil {
		return nil, err
	}
	if _, err := annotate.Tree(prog, annotate.Options{Entry: fn.EntryName()}); err != nil {
		return nil, err
	}
	mod, err := vm.Compile(prog)
	if err != nil {
		return nil, fmt.Errorf("fireworks: %q: %w", fn.Name, err)
	}

	// The install runs on an invocation of its own, so that chains the
	// priming run makes nest under the install trace.
	installInv := platform.NewInvocation(fn.Name)
	clock := installInv.Clock
	sc := f.env.Events.NewScope("core", "install", clock.Now(), events.A("function", fn.Name))
	clock.Observe(f.env.Metrics, sc)
	// Close ends every span still open, so early-return error paths
	// leave no dangling journal spans.
	defer func() { sc.Close(clock.Now()) }()
	// ① Create a microVM ready for a runtime.
	sc.Begin("core", "boot", clock.Now())
	vm := f.env.HV.CreateVM(clock)
	sc.SetVM(vm.ID)
	if err := f.bootRetrier.DoWithDiscard(clock, "kernel-boot", func() error { return vm.BootKernel(clock) }, nil); err != nil {
		return nil, err
	}
	rt := runtime.New(fn.Lang, clock)
	rt.Boot()
	// Package installation (npm/pip) dominates install time for
	// Node.js (§5.1).
	clock.Charge("package-install", rt.Model.PackageInstall)
	sc.End(clock.Now())

	// Host bridge for the install phase: priming mode suppresses
	// externally visible effects; the snapshot request captures the
	// guest at the exact point §3.3 specifies.
	report := &platform.InstallReport{Function: fn.Name}
	inst := &installed{fn: fn, report: report}
	binding := &platform.NativeBinding{
		Profile: f.profile,
		FS:      vm.FS,
		Couch:   f.env.Couch,
		Inv:     installInv,
		Priming: true,
		// Priming runs real chains when the callee is already
		// installed; missing callees resolve to null.
		Invoke: func(child string, childParams lang.Value, parent *platform.Invocation) (*platform.Invocation, error) {
			return f.Invoke(child, childParams, platform.InvokeOptions{Parent: parent})
		},
	}
	binding.Install(rt)
	f.installFireworksNatives(rt, &fireworksBridge{
		defaultParams: fn.DefaultParams,
		snapshotRequest: func() error {
			return f.takeSnapshot(inst, vm, rt, clock)
		},
	})

	// ② ③ Load the annotated module and run the JIT driver.
	sc.Begin("core", "jit-prime", clock.Now())
	if err := rt.Load(mod); err != nil {
		_ = vm.Stop()
		return nil, err
	}
	if _, err := rt.Call("__fireworks_jit"); err != nil {
		_ = vm.Stop()
		return nil, fmt.Errorf("fireworks: install priming of %q: %w", fn.Name, err)
	}
	// The @jit annotations force compilation of every user function the
	// language's JIT supports, not only those the priming run made hot.
	rt.ForceJITAll()
	report.JITCompiled = rt.Engine.CompiledFunctions()
	sc.End(clock.Now())

	// ④ The annotated code requests the snapshot right before the
	// original entry point.
	sc.Begin("core", "snapshot-capture", clock.Now())
	if _, err := rt.Call("__fireworks_snapshot"); err != nil {
		_ = vm.Stop()
		return nil, fmt.Errorf("fireworks: snapshot of %q: %w", fn.Name, err)
	}
	sc.End(clock.Now())
	if inst.template == nil {
		_ = vm.Stop()
		return nil, fmt.Errorf("fireworks: %q never requested its snapshot", fn.Name)
	}
	if err := vm.Stop(); err != nil {
		return nil, err
	}

	report.Duration = clock.Now()
	f.env.Metrics.Counter("fireworks_install_total").Inc()
	f.env.Metrics.Histogram("fireworks_install_duration").
		ObserveDurationExemplar(report.Duration, uint64(sc.TraceID()), clock.Now())
	f.mu.Lock()
	f.fns[fn.Name] = inst
	f.mu.Unlock()
	return report, nil
}

// codeHash fingerprints a function's deployed code (FNV-1a over the
// language, entry point, and source). It is the {code_hash} half of the
// snapshot content key: redeploying changed code changes the hash, so
// the stale image is invalidated instead of silently reused.
func codeHash(fn platform.Function) string {
	var h uint64 = 14695981039346656037
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		h ^= 0xff
		h *= 1099511628211
	}
	mix(string(fn.Lang))
	mix(fn.EntryName())
	mix(fn.Source)
	return fmt.Sprintf("%012x", h&0xffffffffffff)
}

// BaseImageName keys the shared base-runtime (post-load) image one per
// language: every function snapshot of that language is a delta over
// it in the chunked store.
func BaseImageName(lang runtime.Lang) string { return "base/" + string(lang) }

// takeSnapshot captures guest state and memory at the snapshot point,
// storing the image as a content-addressed delta over the shared
// base-runtime image (kernel + runtime + libraries chunks are keyed by
// language, so the pool holds them once per language; only the
// function's private heap/JIT chunks — keyed {function_id}_{code_hash}
// — add bytes).
func (f *Framework) takeSnapshot(inst *installed, vm *vmm.MicroVM, rt *runtime.Runtime, clock *vclock.Clock) error {
	sc := clock.Scope()
	template, err := rt.SnapshotTemplate()
	if err != nil {
		return err
	}
	foot := rt.Footprint()
	lang := inst.fn.Lang
	contentKey := fmt.Sprintf("%s_%s", inst.fn.Name, codeHash(inst.fn))
	baseName := BaseImageName(lang)
	baseSpecs := []vmm.RegionSpec{
		{Kind: mem.KindKernel, Bytes: vmm.CostKernelBytes, Content: "base:kernel"},
		{Kind: mem.KindRuntime, Bytes: foot.RuntimeImage, Content: "base:runtime:" + string(lang)},
		{Kind: mem.KindLibrary, Bytes: foot.Libraries, Content: "base:lib:" + string(lang)},
	}
	// Register the shared base image once per language: a real capture
	// of the post-load guest (kernel, runtime, libraries — no function
	// state), whose chunks every later function snapshot dedups
	// against.
	if !f.env.Snaps.Has(baseName) {
		base, berr := f.env.HV.TakeSnapshot(vm, baseSpecs, snapshotWorkingSetBytes, nil, clock)
		if berr != nil {
			return berr
		}
		base.ContentKey = "base_" + string(lang)
		sc.Instant("vmm", "snapshot", clock.Now(),
			events.A("vm", vm.ID), events.A("snapshot", base.ID), events.A("image", baseName))
		if perr := f.env.Snaps.Put(baseName, base); perr != nil {
			return f.classifyPutError(baseName, perr)
		}
		if f.env.RemoteSnaps != nil {
			f.env.RemoteSnaps.Upload(baseName, base, clock)
		}
	}
	// Region order matters: execution dirties heap pages first. The
	// heap (and JIT-code) regions carry the function's private content
	// class; the kernel/runtime/library regions repeat the base classes
	// and therefore cost nothing in the chunk pool.
	specs := []vmm.RegionSpec{
		{Kind: mem.KindHeap, Bytes: foot.ModuleCode + rt.Model.HeapPerInvokeBytes + inst.fn.DirtyBytesPerRun, Content: "fn:" + contentKey},
	}
	specs = append(specs, baseSpecs...)
	if foot.JITCode > 0 {
		specs = append(specs, vmm.RegionSpec{Kind: mem.KindJITCode, Bytes: foot.JITCode, Content: "fn:" + contentKey})
	}
	snap, err := f.env.HV.TakeSnapshot(vm, specs, snapshotWorkingSetBytes, template, clock)
	if err != nil {
		return err
	}
	snap.ContentKey = contentKey
	snap.BaseKey = baseName
	sc.Instant("vmm", "snapshot", clock.Now(),
		events.A("vm", vm.ID), events.A("snapshot", snap.ID))
	if err := f.env.Snaps.Put(inst.fn.Name, snap); err != nil {
		return f.classifyPutError(inst.fn.Name, err)
	}
	// With remote storage configured, the install also uploads the
	// image, so later local evictions cost a network fetch instead of a
	// reinstall (§6). Base chunks are already remote (uploaded above),
	// so this transfer moves only the function's delta.
	if f.env.RemoteSnaps != nil {
		f.env.RemoteSnaps.Upload(inst.fn.Name, snap, clock)
	}
	inst.template = template
	inst.report.SnapshotBytes = snap.TotalBytes()
	return nil
}

// classifyPutError distinguishes the two ways a snapshot store Put
// fails: wedged (every resident image is pinned by in-flight
// invocations — backpressure, counted separately) versus plain
// capacity (image larger than the budget). Both keep the original
// error in the chain so errors.Is(err, snapshot.ErrAllPinned) still
// identifies the wedged case.
func (f *Framework) classifyPutError(name string, err error) error {
	if errors.Is(err, snapshot.ErrAllPinned) {
		f.env.Metrics.Counter("fireworks_store_wedged_total").Inc()
		return fmt.Errorf("fireworks: %q: snapshot store wedged (every resident image pinned): %w", name, err)
	}
	return fmt.Errorf("fireworks: %q: snapshot store rejected image: %w", name, err)
}

// invokeStatePool recycles invokeState across invocations: the state
// never escapes Invoke (the stages and the undo closures referencing it
// all run inside it), so it is reset and returned when Invoke returns.
var invokeStatePool = sync.Pool{New: func() any { return new(invokeState) }}

// invokeState threads one invocation's accumulating state through the
// stages.
type invokeState struct {
	name   string
	params lang.Value
	inv    *platform.Invocation
	inst   *installed
	snap   *vmm.Snapshot
	// pinned marks that this invocation holds a Store pin on the
	// image. The flag (not a bare Unpin) guards against double-release:
	// pins are counted globally, so an extra Unpin would release
	// another invocation's pin.
	pinned   bool
	fcID     string
	topic    string
	instance *Instance
	// restoreStart opens the interval fireworks_restore_duration
	// observes: the restore, netns and revive stages.
	restoreStart time.Duration
	// undo holds the teardown of each resource a stage claimed (delete
	// the topic, stop the VM, unpin the snapshot). A failure runs it
	// in reverse, so it releases exactly the acquired set; on success
	// the resources are left to the release stage.
	undo []func()
}

// Invoke implements platform.Platform (Figure 2 steps 5-8). StartMode
// is ignored: Fireworks always resumes the post-JIT snapshot.
//
// The stages run in table order, each inside a journal span named
// after it. The first error stops the run, unwinds st.undo, counts
// fireworks_stage_failures_total{stage} and is returned unwrapped — no
// leaked topic, pin, or running microVM.
func (f *Framework) Invoke(name string, params lang.Value, opts platform.InvokeOptions) (*platform.Invocation, error) {
	f.mu.Lock()
	inst, ok := f.fns[name]
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fireworks: no function %q", name)
	}
	inv := opts.Parent
	if inv == nil {
		inv = platform.NewInvocation(name)
		inv.Clock.Observe(f.env.Metrics, opts.Trace)
	}
	// Trace context: nest under the caller's scope (gateway, cluster,
	// or a chain parent) when one is open, else root a fresh trace.
	sc := inv.Clock.Scope()
	var entryDepth int
	if sc == nil {
		sc = f.env.Events.NewScope("core", "invoke", inv.Clock.Now(), events.A("function", name))
		inv.Clock.Observe(f.env.Metrics, sc)
	} else {
		entryDepth = sc.OpenSpans()
		sc.Begin("core", "invoke", inv.Clock.Now(), events.A("function", name))
	}
	// finishScope closes the invoke span (and, defensively, anything a
	// failed stage left open under it).
	finishScope := func(ferr error) {
		now := inv.Clock.Now()
		for sc.OpenSpans() > entryDepth+1 {
			sc.End(now)
		}
		if ferr != nil {
			sc.End(now, events.A("error", ferr.Error()))
		} else {
			sc.End(now, events.A("mode", inv.Mode.String()))
		}
	}

	st := invokeStatePool.Get().(*invokeState)
	*st = invokeState{name: name, params: params, inv: inv, inst: inst, undo: st.undo[:0]}
	defer func() {
		clear(st.undo)
		*st = invokeState{undo: st.undo[:0]}
		invokeStatePool.Put(st)
	}()
	stages := [...]struct {
		name string
		run  func(*Framework, *invokeState) error
	}{
		{"snapshot-get", (*Framework).stageSnapshot},
		{"topic-produce", (*Framework).stageTopic},
		// Spans, failure labels and trace consumers key on this name,
		// so it stays although every start restores.
		{"restore-or-reuse", (*Framework).stageRestore},
		{"netns", (*Framework).stageNetns},
		{"runtime-revive", (*Framework).stageRevive},
		{"execute", (*Framework).stageExecute},
		{"release", (*Framework).stageRelease},
	}
	for _, stage := range stages {
		sc.Begin("core", stage.name, inv.Clock.Now())
		err := stage.run(f, st)
		if err == nil {
			sc.End(inv.Clock.Now())
			continue
		}
		sc.End(inv.Clock.Now(), events.A("error", err.Error()))
		for i := len(st.undo) - 1; i >= 0; i-- {
			st.undo[i]()
		}
		f.obs.ObserveInvokeError()
		f.env.Metrics.Counter(metrics.Name("fireworks_stage_failures_total", "stage", stage.name)).Inc()
		finishScope(err)
		// An execute (or release) failure still yields the invocation
		// with its ledger for diagnosis; start-up failures do not.
		if stage.name == "execute" || stage.name == "release" {
			return inv, err
		}
		return nil, err
	}
	// Chained child invocations accumulate into the parent's clock;
	// only the top-level request is a platform invocation.
	if opts.Parent == nil {
		f.obs.ObserveInvocation(inv)
	}
	finishScope(nil)
	return inv, nil
}

// stageSnapshot resolves the function's snapshot image, falling back to
// remote storage after a local eviction, and pins it against eviction
// for the rest of the invocation.
func (f *Framework) stageSnapshot(st *invokeState) error {
	name, inv := st.name, st.inv
	snap, err := f.env.Snaps.Get(name)
	if err != nil && f.env.RemoteSnaps != nil {
		// Local eviction: pull the image from remote storage (charged
		// to this invocation's start-up) and repopulate the cache.
		inv.Clock.Scope().Instant("snapshot", "store-miss", inv.Clock.Now(), events.A("image", name))
		defer inv.Clock.SetPhase(inv.Clock.SetPhase(vclock.Startup))
		err = f.retrier.DoWithDiscard(inv.Clock, "remote-fetch", func() error {
			var ferr error
			snap, ferr = f.env.RemoteSnaps.Fetch(name, f.env.Snaps, inv.Clock)
			return ferr
		}, nil)
		if err == nil {
			f.env.Metrics.Counter("fireworks_remote_fetch_total").Inc()
			if perr := f.env.Snaps.Put(name, snap); perr != nil {
				return f.classifyPutError(name, perr)
			}
		}
	}
	if err != nil {
		return fmt.Errorf("fireworks: %q: %w (reinstall to regenerate)", name, err)
	}
	st.snap = snap
	if perr := f.env.Snaps.Pin(name); perr == nil {
		st.pinned = true
		st.undo = append(st.undo, func() {
			if st.pinned {
				st.pinned = false
				f.env.Snaps.Unpin(name)
			}
		})
	}
	return nil
}

// stageTopic creates the per-instance topic and produces the arguments
// to it before the clone resumes (step ⑤).
func (f *Framework) stageTopic(st *invokeState) error {
	inv := st.inv
	f.mu.Lock()
	f.nextFcID++
	st.fcID = fmt.Sprintf("fc%06d", f.nextFcID)
	f.mu.Unlock()
	st.topic = fmt.Sprintf("fw-%s-%s", st.name, st.fcID)
	if err := f.env.Bus.CreateTopic(st.topic, 1); err != nil {
		return err
	}
	topic := st.topic
	st.undo = append(st.undo, func() { f.env.Bus.DeleteTopic(topic) })
	paramJSON, err := runtime.EncodeJSON(st.params)
	if err != nil {
		return fmt.Errorf("fireworks: params: %w", err)
	}
	// Stamp the record with this invocation's clock position so the
	// stamped consume after restore measures queue dwell (§3.6), and
	// with the trace scope so the consume event links back to the
	// produce across the restore boundary.
	if err := f.retrier.DoWithDiscard(inv.Clock, "param-produce", func() error {
		_, _, perr := f.env.Bus.ProduceTracedAt(st.topic, st.fcID, paramJSON, inv.Clock.Now(), inv.Clock.Scope())
		return perr
	}, nil); err != nil {
		return err
	}
	inv.Clock.ChargeIn(vclock.Others, "param-queue", f.profile.NetOpBase+platform.PerKB(f.profile, len(paramJSON)))
	return nil
}

// stageRestore restores the snapshot into a fresh microVM (step ⑦).
// It, stageNetns and stageRevive are the invocation's start-up.
func (f *Framework) stageRestore(st *invokeState) error {
	inv := st.inv
	defer inv.Clock.SetPhase(inv.Clock.SetPhase(vclock.Startup))
	st.restoreStart = inv.Clock.Now()
	inv.StartSpan("core", "vm-restore")
	// A restore that exceeds the per-attempt deadline (a latency-spike
	// fault) leaves a running clone behind; the discard hook stops it
	// before the retry restores a fresh one.
	ropts := vmm.RestoreOptions{}
	if f.opts.REAPPrefetch {
		// Replay the recorded working set when one exists (captured on
		// this snapshot's first restored invocation); the first restore
		// demand-pages and records.
		if ropts.Prefetch = st.snap.WorkingSet(); ropts.Prefetch != nil {
			f.env.Metrics.Counter("fireworks_prefetch_replays_total").Inc()
		}
	}
	var vm *vmm.MicroVM
	err := f.retrier.DoWithDiscard(inv.Clock, "vm-restore", func() error {
		restored, rerr := f.env.HV.Restore(st.snap, ropts, inv.Clock)
		if rerr != nil {
			return rerr
		}
		vm = restored
		return nil
	}, func() {
		if vm != nil {
			_ = vm.Stop()
			vm = nil
		}
	})
	inv.FinishSpan()
	if err != nil {
		return err
	}
	inv.Clock.Scope().SetVM(vm.ID)
	st.undo = append(st.undo, func() {
		if vm.State() != vmm.StateStopped {
			_ = vm.Stop()
		}
	})
	st.instance = &Instance{Topic: st.topic, VM: vm}
	return nil
}

// stageNetns joins the clone to its network namespace and publishes its
// identity over MMDS (step ⑥).
func (f *Framework) stageNetns(st *invokeState) error {
	inv := st.inv
	vm := st.instance.VM
	defer inv.Clock.SetPhase(inv.Clock.SetPhase(vclock.Startup))
	inv.StartSpan("core", "netns-setup")
	err := f.env.HV.SetupNetwork(vm, st.snap.GuestIP, inv.Clock)
	inv.FinishSpan()
	if err != nil {
		return err
	}
	vm.SetMMDS("fcID", st.fcID)
	vm.SetMMDS("topic", st.topic)
	return nil
}

// stageRevive rebuilds the guest runtime from the snapshot's template
// and binds its host bridge to this invocation.
func (f *Framework) stageRevive(st *invokeState) error {
	inv := st.inv
	vm := st.instance.VM
	template := st.snap.GuestState.(*runtime.SnapshotTemplate)
	defer inv.Clock.SetPhase(inv.Clock.SetPhase(vclock.Startup))
	inv.StartSpan("core", "runtime-revive")
	rt, err := runtime.NewFromSnapshot(template, inv.Clock)
	inv.FinishSpan()
	if err != nil {
		return err
	}
	f.env.Metrics.Histogram("fireworks_restore_duration").
		ObserveDurationExemplar(inv.Clock.Since(st.restoreStart), uint64(inv.Clock.Scope().TraceID()), inv.Clock.Now())

	binding := &platform.NativeBinding{
		Profile: f.profile,
		FS:      vm.FS,
		Couch:   f.env.Couch,
		Inv:     inv,
		Invoke: func(child string, childParams lang.Value, parent *platform.Invocation) (*platform.Invocation, error) {
			return f.Invoke(child, childParams, platform.InvokeOptions{Parent: parent})
		},
	}
	binding.Install(rt)
	f.installFireworksNatives(rt, f.invokeBridge(st))
	st.instance.rt = rt
	return nil
}

// invokeBridge builds the per-invocation guest bridge: the fetchParams
// closure captures this invocation and VM.
func (f *Framework) invokeBridge(st *invokeState) *fireworksBridge {
	inv := st.inv
	vm := st.instance.VM
	return &fireworksBridge{
		defaultParams: st.inst.fn.DefaultParams,
		fetchParams: func() (lang.Value, error) {
			// The resumed clone identifies itself via MMDS, then reads
			// exactly one message from its topic (kafkacat -o -1 -c 1).
			inv.Clock.ChargeIn(vclock.Others, "mmds", vmm.CostMMDSAccess)
			topicName, ok := vm.MMDS("topic")
			if !ok {
				return nil, fmt.Errorf("fireworks: MMDS has no topic")
			}
			var msg msgbus.Message
			err := f.retrier.DoWithDiscard(inv.Clock, "param-fetch", func() (cerr error) {
				msg, cerr = f.env.Bus.ConsumeLatestTracedAt(topicName, inv.Clock.Now(), inv.Clock.Scope())
				return cerr
			}, nil)
			if err != nil {
				return nil, err
			}
			inv.Clock.ChargeIn(vclock.Others, "param-fetch", f.profile.NetOpBase+platform.PerKB(f.profile, len(msg.Value)))
			return runtime.ParseJSON(msg.Value)
		},
	}
}

// stageExecute resumes the guest at the post-snapshot continuation
// (step ⑧).
func (f *Framework) stageExecute(st *invokeState) error {
	inv := st.inv
	rt := st.instance.rt
	inv.StartSpan("core", "exec")
	result, _, err := inv.ChargeExec(func() (lang.Value, error) { return rt.Call("__fireworks_continue") })
	inv.FinishSpan()
	if err != nil {
		return fmt.Errorf("fireworks: %s: %w", st.name, err)
	}
	inv.Result = result
	inv.RespondDefault(result, f.profile)
	inv.Logs += rt.Stdout.String()
	rt.Stdout.Reset()
	inv.Mode = platform.ModeWarm // every Fireworks start behaves like (better than) warm
	inv.SandboxID = st.instance.VM.ID
	return nil
}

// stageRelease accounts copy-on-write dirtying, drops the snapshot pin,
// and disposes of the instance: retained, or stopped. The topic is
// deleted even when the stop fails — the fix for the historical leak
// where a failed Stop left the topic behind.
func (f *Framework) stageRelease(st *invokeState) error {
	name, inv := st.name, st.inv
	instance := st.instance
	vm := instance.VM
	rt := instance.rt
	// Execution dirties the heap pages of the shared image (CoW).
	vm.DirtyKind(mem.KindHeap, rt.Model.HeapPerInvokeBytes+st.inst.fn.DirtyBytesPerRun)
	// Numba re-links its duplicated MCJIT modules on resume, CoW-
	// splitting the JIT-code pages — the reason §5.5.2 sees no
	// post-JIT memory win for Python.
	if rt.Model.JITCodeDuplication > 1 {
		vm.DirtyKind(mem.KindJITCode, rt.JITCodeBytes())
	}
	if f.opts.REAPPrefetch && st.snap.WorkingSet() == nil {
		// First restored invocation of this snapshot: capture the REAP
		// working-set record from the fault telemetry now that
		// execution has dirtied its pages. Later restores replay it.
		rec := st.snap.RecordWorkingSet(vm)
		inv.Clock.Scope().Instant("snapshot", "ws-record", inv.Clock.Now(),
			events.A("image", name),
			events.A("chunks", fmt.Sprint(len(rec.ChunkIDs))),
			events.A("bytes", fmt.Sprint(rec.Bytes)))
	}
	if st.pinned {
		st.pinned = false
		f.env.Snaps.Unpin(name)
	}
	if f.opts.RetainInstances {
		f.mu.Lock()
		f.instances[name] = append(f.instances[name], instance)
		f.mu.Unlock()
		return nil
	}
	stopErr := vm.Stop()
	f.env.Bus.DeleteTopic(instance.Topic)
	if stopErr != nil {
		return stopErr
	}
	inv.Clock.Scope().Instant("vmm", "stop", inv.Clock.Now(), events.A("vm", vm.ID))
	return nil
}

// Remove implements platform.Platform.
func (f *Framework) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.fns[name]; !ok {
		return fmt.Errorf("fireworks: no function %q", name)
	}
	for _, instance := range f.instances[name] {
		if err := instance.VM.Stop(); err != nil {
			return err
		}
		f.env.Bus.DeleteTopic(instance.Topic)
	}
	delete(f.instances, name)
	f.env.Snaps.Remove(name)
	if f.env.RemoteSnaps != nil {
		f.env.RemoteSnaps.Delete(name)
	}
	delete(f.fns, name)
	return nil
}

// Spaces returns the address spaces of the function's retained
// instances (implements the experiment harness's MemoryReporter).
func (f *Framework) Spaces(name string) []*mem.Space {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []*mem.Space
	for _, instance := range f.instances[name] {
		out = append(out, instance.VM.Space())
	}
	return out
}

// Instances returns the retained live instances of a function.
func (f *Framework) Instances(name string) []*Instance {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*Instance{}, f.instances[name]...)
}

// fireworksBridge holds the install/invoke host callbacks exposed to
// the guest as __fireworks_* natives.
type fireworksBridge struct {
	defaultParams   map[string]any
	snapshotRequest func() error
	fetchParams     func() (lang.Value, error)
}

// installFireworksNatives binds the Fireworks host bridge into a guest.
func (f *Framework) installFireworksNatives(rt *runtime.Runtime, bridge *fireworksBridge) {
	natives := map[string]*lang.Native{
		"__fireworks_default_params": {
			Name: "__fireworks_default_params", Arity: 0,
			Fn: func(args []lang.Value) (lang.Value, error) {
				return platform.ParamsValue(bridge.defaultParams)
			},
		},
		"__fireworks_snapshot_request": {
			Name: "__fireworks_snapshot_request", Arity: 0,
			Fn: func(args []lang.Value) (lang.Value, error) {
				if bridge.snapshotRequest == nil {
					// Restored clones resume *after* the snapshot point;
					// the request is a no-op there.
					return nil, nil
				}
				return nil, bridge.snapshotRequest()
			},
		},
		"__fireworks_fetch_params": {
			Name: "__fireworks_fetch_params", Arity: 0,
			Fn: func(args []lang.Value) (lang.Value, error) {
				if bridge.fetchParams == nil {
					// During install the driver never reaches the fetch
					// (the host stops after the snapshot), but keep a
					// sane default for direct __fireworks_main runs.
					return platform.ParamsValue(bridge.defaultParams)
				}
				return bridge.fetchParams()
			},
		},
	}
	rt.InstallNatives(natives)
}

// Statically assert the Platform contract.
var _ platform.Platform = (*Framework)(nil)
