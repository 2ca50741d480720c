// Package platform implements the generic serverless-platform machinery
// shared by every system in the paper's evaluation: function registry,
// invocation accounting (the phase ledger of a virtual clock), guest
// host-bridge natives (disk, network, database, chain invocation), and
// the three baseline platforms — OpenWhisk (containers + controller
// overhead), gVisor (runsc sandboxes), and Firecracker (microVMs with
// optional OS-level snapshots). The Fireworks platform itself lives in
// internal/core and implements the same Platform interface.
package platform

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/couchdb"
	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/msgbus"
	"repro/internal/netsim"
	"repro/internal/runtime"
	"repro/internal/sandbox"
	"repro/internal/snapshot"
	"repro/internal/vclock"
	"repro/internal/vmm"
)

// Function is a deployable serverless function.
type Function struct {
	// Name uniquely identifies the function on the platform.
	Name string
	// Source is the FaaSLang source text.
	Source string
	// Lang selects the runtime personality (nodejs / python).
	Lang runtime.Lang
	// Entry is the entry-point function; "main" if empty.
	Entry string
	// DefaultParams is the example input used by install-time priming
	// (Fireworks' __fireworks_jit) and by docs.
	DefaultParams map[string]any
	// DirtyBytesPerRun models guest memory dirtied by one invocation
	// (heap churn, page cache) beyond the runtime's own heap model.
	DirtyBytesPerRun uint64
}

// EntryName returns the function's entry point.
func (f *Function) EntryName() string {
	if f.Entry == "" {
		return "main"
	}
	return f.Entry
}

// StartMode selects the invocation path.
type StartMode int

// Start modes.
const (
	// ModeAuto uses a warm sandbox when one is available.
	ModeAuto StartMode = iota
	// ModeCold forces a fresh sandbox.
	ModeCold
	// ModeWarm requires a warm sandbox and fails without one.
	ModeWarm
)

// String returns the mode name.
func (m StartMode) String() string {
	switch m {
	case ModeCold:
		return "cold"
	case ModeWarm:
		return "warm"
	default:
		return "auto"
	}
}

// Response is an HTTP-ish response produced by a guest via
// http_respond.
type Response struct {
	Status int
	Header string
	Body   string
}

// Invocation carries the accounting context of one end-to-end request.
// Chained function calls share the parent's clock, so an application
// chain reports one combined latency exactly as the paper's Figure 9
// does.
type Invocation struct {
	Function string
	Clock    *vclock.Clock
	// Breakdown is Clock under the name its readers use: its Startup,
	// Exec, Others and Total are the paper's phase split, a view over
	// the charges that moved the clock rather than a second book.
	Breakdown *vclock.Clock
	Response  *Response
	Result    lang.Value
	Logs      string
	SandboxID string
	// Mode records which start path actually ran (cold/warm).
	Mode StartMode
	// GuestOps counts the guest ops the function's own call executed;
	// a chained child's ops count in the child's invocation.
	GuestOps int64
	// Trace is the invocation's handle into the event journal. Nil when
	// the deployment records no events; every emission site is nil-safe.
	Trace *events.Scope
}

// NewInvocation returns a fresh accounting context at virtual time 0.
func NewInvocation(function string) *Invocation { return NewInvocationAt(function, 0) }

// NewInvocationAt returns a fresh accounting context whose clock starts
// at virtual time at.
func NewInvocationAt(function string, at time.Duration) *Invocation {
	clock := vclock.NewAt(at)
	return &Invocation{Function: function, Clock: clock, Breakdown: clock}
}

// ChargeExec runs a guest call inside an exec phase scope: what the
// call charges without naming a phase (guest ops, in-run JIT, disk) is
// execution, while host-native "others" charges and a chained child's
// start-up keep their own phases. It returns the call's result and the
// exec time it booked.
func (inv *Invocation) ChargeExec(call func() (lang.Value, error)) (lang.Value, time.Duration, error) {
	before := inv.Clock.Exec()
	prev := inv.Clock.SetPhase(vclock.Exec)
	result, err := call()
	inv.Clock.SetPhase(prev)
	return result, inv.Clock.Exec() - before, err
}

// RespondDefault delivers result as the response — status 200, the
// formatted value, priced under the sandbox profile — unless the guest
// already answered over HTTP itself.
func (inv *Invocation) RespondDefault(result lang.Value, p sandbox.Profile) {
	if inv.Response != nil {
		return
	}
	body := lang.Format(result)
	inv.Clock.ChargeIn(vclock.Others, "response", p.NetOpBase+PerKB(p, len(body)))
	inv.Response = &Response{Status: 200, Body: body}
}

// StartSpan opens a span in the event journal at the invocation's
// current virtual time. Close it with FinishSpan.
func (inv *Invocation) StartSpan(component, name string, attrs ...events.Attr) {
	inv.Trace.Begin(component, name, inv.Clock.Now(), attrs...)
}

// FinishSpan closes the innermost span opened by StartSpan.
func (inv *Invocation) FinishSpan(attrs ...events.Attr) {
	inv.Trace.End(inv.Clock.Now(), attrs...)
}

// InvokeOptions tunes one Invoke call.
type InvokeOptions struct {
	Mode StartMode
	// Parent, when set, makes this invocation part of an ongoing one
	// (function chain): the clock and its ledger are shared.
	Parent *Invocation
	// At positions the request on a workload timeline (trace replay).
	// Platforms with a keep-alive policy use it to expire idle warm
	// sandboxes; zero means untimed.
	At time.Duration
	// Trace, when set, is the request's already-open event scope (a
	// gateway or cluster layer opened the trace); the platform nests its
	// spans under it instead of opening a trace of its own.
	Trace *events.Scope
}

// Platform is the interface every evaluated system implements.
type Platform interface {
	// PlatformName identifies the platform in reports.
	PlatformName() string
	// Install deploys a function. The returned report describes what
	// installation cost (for Fireworks: annotate + boot + JIT +
	// snapshot).
	Install(fn Function) (*InstallReport, error)
	// Invoke runs a deployed function with the given parameters.
	Invoke(name string, params lang.Value, opts InvokeOptions) (*Invocation, error)
	// Remove undeploys a function and releases its sandboxes.
	Remove(name string) error
}

// InstallReport describes one function installation.
type InstallReport struct {
	Function string
	// Duration is the virtual install time (for Fireworks this is the
	// §5.1 "post-JIT snapshot creation time").
	Duration time.Duration
	// SnapshotBytes is the produced snapshot image size (0 when the
	// platform does not snapshot at install).
	SnapshotBytes uint64
	// JITCompiled lists functions force-compiled during install.
	JITCompiled []string
}

// Env bundles the shared host substrate every platform runs on: one
// physical host's memory, network, hypervisor, message bus, database,
// and snapshot storage.
type Env struct {
	Mem    *mem.Host
	Router *netsim.Router
	HV     *vmm.Hypervisor
	Bus    *msgbus.Broker
	Couch  *couchdb.Server
	Snaps  *snapshot.Store
	// RemoteSnaps, when non-nil, backs the local snapshot store with
	// remote object storage (§6): images evicted locally are re-fetched
	// over the network instead of reinstalled.
	RemoteSnaps *snapshot.Remote
	// Metrics aggregates counters, gauges, and histograms from every
	// component of this host (and, in a cluster, can be shared across
	// hosts for a fleet-wide view). Always non-nil from NewEnv.
	Metrics *metrics.Registry
	// Faults is the fault-injection plane armed on this host's
	// components (nil when the host runs fault-free).
	Faults *faults.Plane
	// Events is the host's causal event journal. Always non-nil from
	// NewEnv; in a cluster one shared journal spans every node.
	Events *events.Journal
}

// EnvConfig sizes an Env.
type EnvConfig struct {
	// MemBytes is host physical memory (default 128 GiB, the paper's
	// testbed).
	MemBytes uint64
	// SnapshotDiskBudget bounds snapshot storage (0 = unbounded).
	SnapshotDiskBudget uint64
	// RemoteSnapshotStorage enables the remote snapshot tier.
	RemoteSnapshotStorage bool
	// Metrics, when non-nil, is the registry this host reports into —
	// a cluster passes one shared registry to every node so restores,
	// CoW faults, and queue dwell aggregate fleet-wide. Nil creates a
	// private registry for the host.
	Metrics *metrics.Registry
	// Faults, when non-nil, arms deterministic fault injection on the
	// host's hypervisor, message bus, network router, and remote
	// snapshot store (see internal/faults). A cluster passes one shared
	// plane to every node so the fleet-wide fault schedule is a single
	// seeded sequence.
	Faults *faults.Plane
	// Events, when non-nil, is the journal this host records into — a
	// cluster passes one shared journal to every node so a request's
	// trace survives failover hops. Nil creates a private journal.
	Events *events.Journal
}

// The paper's testbed host (§5.4): the kernel starts swapping at
// vm.swappiness=60, i.e. once 60% of memory is in use, and each host
// has a pool of 4096 external addresses for its clones' NAT rules.
const (
	hostSwappiness     = 0.6
	hostExternalIPPool = 4096
)

// NewEnv creates a host environment.
func NewEnv(cfg EnvConfig) *Env {
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 128 << 30
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	journal := cfg.Events
	if journal == nil {
		journal = events.NewJournal(0)
	}
	host := mem.NewHost(cfg.MemBytes, hostSwappiness)
	router := netsim.NewRouter(hostExternalIPPool)
	env := &Env{
		Mem:     host,
		Router:  router,
		HV:      vmm.New(host, router),
		Bus:     msgbus.NewBroker(),
		Couch:   couchdb.NewServer(),
		Snaps:   snapshot.NewStore(cfg.SnapshotDiskBudget),
		Metrics: reg,
		Events:  journal,
	}
	journal.Instrument(reg)
	host.Instrument(reg)
	env.HV.Instrument(reg)
	env.Bus.Instrument(reg)
	env.Snaps.Instrument(reg)
	if cfg.RemoteSnapshotStorage {
		env.RemoteSnaps = snapshot.NewRemote()
		env.RemoteSnaps.Instrument(reg)
	}
	if cfg.Faults != nil {
		env.Faults = cfg.Faults
		cfg.Faults.Instrument(reg)
		env.HV.AttachFaults(cfg.Faults)
		env.Bus.AttachFaults(cfg.Faults)
		env.Router.AttachFaults(cfg.Faults)
		if env.RemoteSnaps != nil {
			env.RemoteSnaps.AttachFaults(cfg.Faults)
		}
	}
	return env
}

// InvokeMetrics is one platform's invocation instruments: an
// invocation counter, a per-start-mode counter, the paper's three phase
// histograms plus total latency, and an error counter, all labeled by
// platform. Each is resolved once and kept, at the first invocation
// that records into it (per start mode for invoke_mode_total), not at
// construction: a registry then lists, and a dump shows, exactly the
// instruments the platform has recorded into.
type InvokeMetrics struct {
	reg      *metrics.Registry
	platform string

	once    sync.Once
	total   *metrics.Counter
	phases  [3]*metrics.Histogram // start-up, exec, others
	latency *metrics.Histogram
	modes   [3]atomic.Pointer[metrics.Counter] // ModeAuto, ModeCold, ModeWarm

	errOnce sync.Once
	errors  *metrics.Counter
}

// NewInvokeMetrics returns the invocation instruments of the named
// platform in reg. It creates nothing yet.
func NewInvokeMetrics(reg *metrics.Registry, platformName string) *InvokeMetrics {
	return &InvokeMetrics{reg: reg, platform: platformName}
}

// ObserveInvocation records a completed top-level invocation. Chained
// child invocations (opts.Parent != nil) share the parent's clock and
// must not be recorded again; callers skip them.
func (m *InvokeMetrics) ObserveInvocation(inv *Invocation) {
	if inv == nil {
		return
	}
	m.once.Do(func() {
		m.total = m.reg.Counter(metrics.Name("invoke_total", "platform", m.platform))
		for i, ph := range [3]vclock.Phase{vclock.Startup, vclock.Exec, vclock.Others} {
			m.phases[i] = m.reg.Histogram(metrics.Name("invoke_phase_duration", "phase", ph.String(), "platform", m.platform))
		}
		m.latency = m.reg.Histogram(metrics.Name("invoke_latency", "platform", m.platform))
	})
	m.total.Inc()
	m.mode(inv.Mode).Inc()
	tr, now := uint64(inv.Trace.TraceID()), inv.Clock.Now()
	m.phases[0].ObserveDurationExemplar(inv.Breakdown.Startup(), tr, now)
	m.phases[1].ObserveDurationExemplar(inv.Breakdown.Exec(), tr, now)
	m.phases[2].ObserveDurationExemplar(inv.Breakdown.Others(), tr, now)
	m.latency.ObserveDurationExemplar(inv.Breakdown.Total(), tr, now)
}

// mode returns the invoke_mode_total counter of one start mode.
func (m *InvokeMetrics) mode(mode StartMode) *metrics.Counter {
	slot := &m.modes[ModeAuto]
	if mode == ModeCold || mode == ModeWarm {
		slot = &m.modes[mode]
	}
	c := slot.Load()
	if c == nil {
		// Racing first calls resolve the same instrument.
		c = m.reg.Counter(metrics.Name("invoke_mode_total", "mode", mode.String(), "platform", m.platform))
		slot.Store(c)
	}
	return c
}

// ObserveInvokeError counts a failed invocation.
func (m *InvokeMetrics) ObserveInvokeError() {
	m.errOnce.Do(func() {
		m.errors = m.reg.Counter(metrics.Name("invoke_errors_total", "platform", m.platform))
	})
	m.errors.Inc()
}

// PerKB prices size-dependent network cost under a sandbox profile.
func PerKB(p sandbox.Profile, bytes int) time.Duration {
	return time.Duration((bytes+1023)/1024) * p.NetPerKB
}

// ParamsValue converts plain Go data — a Function's default params, or
// a harness's static inputs — into the FaaSLang params map for Invoke.
func ParamsValue(params map[string]any) (lang.Value, error) {
	if params == nil {
		return lang.NewMap(), nil
	}
	goMap := make(map[string]any, len(params))
	for k, v := range params {
		goMap[k] = v
	}
	return runtime.FromGo(goMap)
}

// MustParams is ParamsValue for static inputs in tests and examples.
func MustParams(params map[string]any) lang.Value {
	v, err := ParamsValue(params)
	if err != nil {
		panic(fmt.Sprintf("platform: bad params: %v", err))
	}
	return v
}

// Validate compiles and sanity-checks a function definition at
// registration time; every platform (including Fireworks in
// internal/core) calls it from Install.
func Validate(fn *Function) error {
	if fn.Name == "" {
		return fmt.Errorf("platform: function needs a name")
	}
	if fn.Lang != runtime.LangNode && fn.Lang != runtime.LangPython {
		return fmt.Errorf("platform: function %q has unknown language %q", fn.Name, fn.Lang)
	}
	prog, err := lang.Parse(fn.Source)
	if err != nil {
		return fmt.Errorf("platform: function %q: %w", fn.Name, err)
	}
	entry := prog.Function(fn.EntryName())
	if entry == nil {
		return fmt.Errorf("platform: function %q lacks entry %q", fn.Name, fn.EntryName())
	}
	if len(entry.Params) != 1 {
		return fmt.Errorf("platform: function %q entry must take one params argument", fn.Name)
	}
	return nil
}
