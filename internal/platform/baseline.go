package platform

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/fs"
	"repro/internal/lang"
	"repro/internal/lifecycle"
	"repro/internal/mem"
	"repro/internal/runtime"
	"repro/internal/sandbox"
	"repro/internal/trace"
	"repro/internal/vmm"
)

// baseline drives every baseline platform — OpenWhisk, gVisor,
// Firecracker, V8 isolates: function registry, warm pool, request and
// response delivery, exec attribution and once-per-guest heap dirtying
// are written here once, so all of them are charged by the same
// accounting. What differs between them is behind kind. The driver is
// the only place a guest is torn down (cold-start failure, failed
// resume or park, pool eviction, Remove), so no path can leak one.
type baseline struct {
	env     *Env
	name    string
	profile sandbox.Profile
	kind    kind
	// chains enables the invoke() native (OpenWhisk can run function
	// chains; the bare sandbox managers cannot — §5.3).
	chains bool
	// pool holds idle warm guests; its keep-alive TTL bounds how long
	// one stays resident on the workload timeline (InvokeOptions.At);
	// zero keeps guests forever (the default for untimed invocations).
	pool *lifecycle.Pool[*guest]
	// obs holds the platform's invocation instruments.
	obs *InvokeMetrics

	mu     sync.Mutex
	fns    map[string]*deployed
	nextID int
}

// deployed is an installed function plus what its kind captured at
// install time.
type deployed struct {
	Function
	// osSnap is the post-OS-boot image Firecracker's OS-snapshot mode
	// restores on a cold start.
	osSnap *vmm.Snapshot
}

// guest is one sandbox (container, microVM or isolate) with a loaded
// runtime, running or parked in the pool.
type guest struct {
	id      string
	fn      *deployed
	rt      *runtime.Runtime
	binding *NativeBinding
	space   *mem.Space
	// vm is the guest's microVM (Firecracker only).
	vm *vmm.MicroVM
	// dirtied records that the first run's heap is already accounted:
	// later warm runs reuse the same pages.
	dirtied bool
}

// kind is what differs between the baselines.
type kind interface {
	// install does the install-time work for a validated function.
	install(b *baseline, fn *deployed, report *InstallReport) error
	// cold provisions g as a fresh guest running fn's module. It records
	// each resource on g as soon as it exists, so that when a later step
	// fails the driver's stop releases what was built.
	cold(b *baseline, g *guest, inv *Invocation) error
	// resume readies a guest taken from the pool.
	resume(b *baseline, g *guest, inv *Invocation) error
	// park idles a guest that served its request, before it is pooled.
	park(g *guest) error
	// stop releases whatever g holds.
	stop(g *guest) error
	// dirty accounts the memory g's first run writes.
	dirty(g *guest)
}

func newBaseline(env *Env, name string, class sandbox.Class, ttl time.Duration, k kind) *baseline {
	b := &baseline{
		env:     env,
		name:    name,
		profile: sandbox.Profiles(class),
		kind:    k,
		obs:     NewInvokeMetrics(env.Metrics, name),
		fns:     make(map[string]*deployed),
	}
	b.pool = lifecycle.NewPool(lifecycle.PoolConfig[*guest]{
		TTL:     ttl,
		OnEvict: func(g *guest) { _ = k.stop(g) },
	})
	b.pool.Instrument(env.Metrics, name)
	return b
}

// PlatformName implements Platform.
func (b *baseline) PlatformName() string { return b.name }

// Install implements Platform. Guests are created lazily at the first
// invocation; only the kind's install-time work happens here.
func (b *baseline) Install(fn Function) (*InstallReport, error) {
	if err := Validate(&fn); err != nil {
		return nil, err
	}
	d := &deployed{Function: fn}
	report := &InstallReport{Function: fn.Name}
	if err := b.kind.install(b, d, report); err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.fns[fn.Name] = d
	b.mu.Unlock()
	return report, nil
}

// Remove implements Platform: stop the function's pooled guests and
// forget it.
func (b *baseline) Remove(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.fns[name]; !ok {
		return fmt.Errorf("%s: no function %q", b.name, name)
	}
	var firstErr error
	for _, g := range b.pool.DrainKey(name) {
		if err := b.kind.stop(g); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	delete(b.fns, name)
	return firstErr
}

// Invoke implements Platform.
func (b *baseline) Invoke(name string, params lang.Value, opts InvokeOptions) (*Invocation, error) {
	b.mu.Lock()
	fn, ok := b.fns[name]
	b.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%s: no function %q", b.name, name)
	}
	inv := opts.Parent
	if inv == nil {
		inv = NewInvocation(name)
	}
	// Request delivery: frontend (-> controller) -> sandbox.
	inv.ChargeOther("param-deliver", b.profile.NetOpBase+PerKB(b.profile, encodedSize(params)))

	g, err := b.acquire(fn, opts.Mode, inv, opts.At)
	if err != nil {
		b.obs.ObserveInvokeError()
		return nil, err
	}
	inv.SandboxID = g.id
	g.rt.SetClock(inv.Clock)
	g.binding.Rebind(inv)

	ops := g.rt.VM.Steps()
	result, exec, err := inv.ChargeExec(func() (lang.Value, error) {
		return g.rt.Call(fn.EntryName(), params)
	})
	inv.GuestOps = g.rt.VM.Steps() - ops
	// Sentry-style sandboxes intercept the runtime's own syscalls
	// during computation (gVisor), taxing pure execution.
	if b.profile.ExecOverheadFactor > 0 && exec > 0 {
		tax := time.Duration(float64(exec) * b.profile.ExecOverheadFactor)
		inv.Clock.Advance(tax)
		inv.Breakdown.Add(trace.PhaseExec, "syscall-interception", tax)
	}
	if err != nil {
		b.release(g, opts.At)
		b.obs.ObserveInvokeError()
		return inv, fmt.Errorf("%s: %s: %w", b.name, name, err)
	}
	inv.Result = result
	inv.Logs += g.rt.Stdout.String()
	g.rt.Stdout.Reset()
	if !g.dirtied {
		b.kind.dirty(g)
		g.dirtied = true
	}
	inv.RespondDefault(result, b.profile)

	b.release(g, opts.At)
	if opts.Parent == nil {
		b.obs.ObserveInvocation(inv)
	}
	return inv, nil
}

// acquire returns a running guest for fn — a pooled one still inside its
// keep-alive at timeline position at, else a cold start — and records
// the start path taken on inv.
func (b *baseline) acquire(fn *deployed, mode StartMode, inv *Invocation, at time.Duration) (*guest, error) {
	if mode != ModeCold {
		if g, ok := b.pool.Acquire(fn.Name, at); ok {
			if err := b.kind.resume(b, g, inv); err != nil {
				_ = b.kind.stop(g)
				return nil, err
			}
			inv.Mode = ModeWarm
			return g, nil
		}
	}
	if mode == ModeWarm {
		return nil, fmt.Errorf("%s: no warm sandbox for %q", b.name, fn.Name)
	}
	g := &guest{fn: fn}
	if err := b.kind.cold(b, g, inv); err != nil {
		_ = b.kind.stop(g)
		return nil, err
	}
	inv.Mode = ModeCold
	return g, nil
}

// release parks a guest and returns it to the warm pool, stamped with
// the invocation's workload-timeline position. A guest that cannot park
// is broken and dropped.
func (b *baseline) release(g *guest, at time.Duration) {
	if err := b.kind.park(g); err != nil {
		_ = b.kind.stop(g)
		return
	}
	b.pool.Release(g.fn.Name, g, at)
}

// newID names the platform's next guest.
func (b *baseline) newID() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	return fmt.Sprintf("%s-%04d", b.name, b.nextID)
}

// startRuntime gives g its language runtime: natives bound to inv over
// fsys, the runtime booted (unless it joins an already warm process),
// the function's module loaded.
func (b *baseline) startRuntime(g *guest, inv *Invocation, fsys fs.FS, warmProcess bool) error {
	g.rt = runtime.New(g.fn.Lang, inv.Clock)
	g.binding = &NativeBinding{Profile: b.profile, FS: fsys, Couch: b.env.Couch, Inv: inv}
	if b.chains {
		g.binding.Invoke = func(name string, params lang.Value, parent *Invocation) (*Invocation, error) {
			return b.Invoke(name, params, InvokeOptions{Parent: parent})
		}
	}
	g.binding.Install(g.rt)
	if warmProcess {
		g.rt.BootWarmProcess()
	} else {
		g.rt.Boot()
	}
	return g.rt.LoadModule(g.fn.Source)
}

// ExpireIdle implements Platform: terminate every pooled guest idle past
// the keep-alive at timeline position now, releasing its memory. (Acquire
// also expires lazily; this is the background reaper that reclaims
// memory for functions that are never called again.) Only OpenWhisk is
// ever given a keep-alive; the others reap nothing.
func (b *baseline) ExpireIdle(now time.Duration) int { return b.pool.ExpireIdle(now) }

// WarmCount implements Platform: the idle pool size for a function.
func (b *baseline) WarmCount(name string) int { return b.pool.Count(name) }

// Spaces returns the address spaces of the function's pooled guests
// (implements the harness's MemoryReporter).
func (b *baseline) Spaces(name string) []*mem.Space {
	var out []*mem.Space
	for _, g := range b.pool.Guests(name) {
		out = append(out, g.space)
	}
	return out
}

// encodedSize estimates the wire size of params.
func encodedSize(params lang.Value) int {
	if params == nil {
		return 2
	}
	data, err := runtime.EncodeJSON(params)
	if err != nil {
		return 64
	}
	return len(data)
}
