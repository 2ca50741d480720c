// Package platform implements the generic serverless-platform machinery
// shared by every system in the paper's evaluation: function registry,
// invocation accounting (latency breakdowns on a virtual clock), guest
// host-bridge natives (disk, network, database, chain invocation), and
// the three baseline platforms — OpenWhisk (containers + controller
// overhead), gVisor (runsc sandboxes), and Firecracker (microVMs with
// optional OS-level snapshots). The Fireworks platform itself lives in
// internal/core and implements the same Platform interface.
package platform

import (
	"fmt"
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
	"repro/internal/trace"
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
// Chained function calls share the parent's clock and breakdown, so an
// application chain reports one combined latency exactly as the paper's
// Figure 9 does.
type Invocation struct {
	Function  string
	Clock     *vclock.Clock
	Breakdown *trace.Breakdown
	Response  *Response
	Result    lang.Value
	Logs      string
	SandboxID string
	// Mode records which start path actually ran (cold/warm).
	Mode StartMode
	// Trace is the invocation's handle into the event journal. Nil when
	// the deployment records no events; every emission site is nil-safe.
	Trace *events.Scope
}

// NewInvocation returns a fresh accounting context.
func NewInvocation(function string) *Invocation {
	return &Invocation{
		Function:  function,
		Clock:     vclock.New(),
		Breakdown: &trace.Breakdown{},
	}
}

// ChargeStartup advances the clock by d and attributes it to start-up.
func (inv *Invocation) ChargeStartup(label string, d time.Duration) {
	inv.Clock.Advance(d)
	inv.Breakdown.Add(trace.PhaseStartup, label, d)
}

// ChargeOther advances the clock by d and attributes it to "others"
// (network, disk, queueing) — the phase the paper separates from pure
// function execution.
func (inv *Invocation) ChargeOther(label string, d time.Duration) {
	inv.Clock.Advance(d)
	inv.Breakdown.Add(trace.PhaseOthers, label, d)
}

// ChargeExec runs a guest call and attributes the function's own
// execution time: the measured span minus whatever the call itself
// charged to explicit phases (host-native "others" charges, and the
// full breakdown of chained child invocations). It returns the call's
// result and the exec time it charged.
func (inv *Invocation) ChargeExec(call func() (lang.Value, error)) (lang.Value, time.Duration, error) {
	attributedBefore := inv.Breakdown.Total()
	mark := inv.Clock.Now()
	result, err := call()
	exec := inv.Clock.Since(mark) - (inv.Breakdown.Total() - attributedBefore)
	inv.Breakdown.Add(trace.PhaseExec, "exec", exec)
	return result, exec, err
}

// RespondDefault delivers result as the response — status 200, the
// formatted value, priced under the sandbox profile — unless the guest
// already answered over HTTP itself.
func (inv *Invocation) RespondDefault(result lang.Value, p sandbox.Profile) {
	if inv.Response != nil {
		return
	}
	body := lang.Format(result)
	inv.ChargeOther("response", p.NetOpBase+PerKB(p, len(body)))
	inv.Response = &Response{Status: 200, Body: body}
}

// Total returns the end-to-end latency recorded so far.
func (inv *Invocation) Total() time.Duration { return inv.Breakdown.Total() }

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
	// (function chain): clock and breakdown are shared.
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
	// ExpireIdle reaps warm guests idle past the platform's keep-alive
	// at workload-timeline position now, returning how many were
	// terminated. Platforms without a keep-alive policy return 0.
	ExpireIdle(now time.Duration) int
	// WarmCount reports how many idle warm guests are pooled for a
	// function.
	WarmCount(name string) int
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
	// Swappiness is the swap threshold fraction (default 0.6,
	// vm.swappiness=60 as in §5.4).
	Swappiness float64
	// SnapshotDiskBudget bounds snapshot storage (0 = unbounded).
	SnapshotDiskBudget uint64
	// RemoteSnapshotStorage enables the remote snapshot tier.
	RemoteSnapshotStorage bool
	// ExternalIPPool sizes the NAT pool (default 4096).
	ExternalIPPool int
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

// NewEnv creates a host environment.
func NewEnv(cfg EnvConfig) *Env {
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 128 << 30
	}
	if cfg.Swappiness == 0 {
		cfg.Swappiness = 0.6
	}
	if cfg.ExternalIPPool == 0 {
		cfg.ExternalIPPool = 4096
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	journal := cfg.Events
	if journal == nil {
		journal = events.NewJournal(0)
	}
	host := mem.NewHost(cfg.MemBytes, cfg.Swappiness)
	router := netsim.NewRouter(cfg.ExternalIPPool)
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

// ObserveInvocation records a completed top-level invocation into the
// host registry: an invocation counter and the paper's three phase
// histograms plus total latency, all labeled by platform. Chained
// child invocations (opts.Parent != nil) share the parent's breakdown
// and must not be recorded again; callers skip them.
func ObserveInvocation(reg *metrics.Registry, platformName string, inv *Invocation) {
	if inv == nil {
		return
	}
	reg.Counter(metrics.Name("invoke_total", "platform", platformName)).Inc()
	reg.Counter(metrics.Name("invoke_mode_total", "mode", inv.Mode.String(), "platform", platformName)).Inc()
	tr, now := uint64(inv.Trace.TraceID()), inv.Clock.Now()
	reg.Histogram(metrics.Name("invoke_phase_duration", "phase", string(trace.PhaseStartup), "platform", platformName)).
		ObserveDurationExemplar(inv.Breakdown.Startup(), tr, now)
	reg.Histogram(metrics.Name("invoke_phase_duration", "phase", string(trace.PhaseExec), "platform", platformName)).
		ObserveDurationExemplar(inv.Breakdown.Exec(), tr, now)
	reg.Histogram(metrics.Name("invoke_phase_duration", "phase", string(trace.PhaseOthers), "platform", platformName)).
		ObserveDurationExemplar(inv.Breakdown.Others(), tr, now)
	reg.Histogram(metrics.Name("invoke_latency", "platform", platformName)).
		ObserveDurationExemplar(inv.Breakdown.Total(), tr, now)
}

// ObserveInvokeError counts a failed invocation for a platform.
func ObserveInvokeError(reg *metrics.Registry, platformName string) {
	reg.Counter(metrics.Name("invoke_errors_total", "platform", platformName)).Inc()
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
