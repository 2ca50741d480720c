// Package vmm is the simulated Firecracker: a lightweight hypervisor
// managing microVMs with guest-physical memory (backed by internal/mem),
// an in-guest filesystem, the microVM Metadata Service (MMDS), VM-level
// snapshot/restore with copy-on-write page sharing, pause/resume for
// warm pools, and per-VM network namespace plumbing (internal/netsim).
//
// Virtual-time costs of every lifecycle operation are defined in
// costs.go and calibrated against the paper's start-up measurements.
package vmm

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/vclock"
)

// State is a microVM lifecycle state.
type State int

// MicroVM states.
const (
	StateCreated State = iota
	StateRunning
	StatePaused
	StateStopped
)

var stateNames = [...]string{"created", "running", "paused", "stopped"}

// String returns the state name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "invalid"
}

// Errors returned by the hypervisor.
var (
	ErrBadState = errors.New("vmm: operation invalid in current state")
	ErrNoVM     = errors.New("vmm: no such microVM")
)

// Config sizes a microVM; the defaults follow the paper's evaluation
// setup (1 vCPU, 512 MiB memory, 2 GiB disk).
type Config struct {
	VCPUs     int
	MemBytes  uint64
	DiskBytes uint64
}

// DefaultConfig is the paper's microVM configuration.
func DefaultConfig() Config {
	return Config{VCPUs: 1, MemBytes: 512 << 20, DiskBytes: 2 << 30}
}

// Hypervisor manages microVMs on one host.
type Hypervisor struct {
	Host   *mem.Host
	Router *netsim.Router

	mu     sync.Mutex
	vms    map[string]*MicroVM
	nextID int

	// faults, when attached, injects failures at the vmm.boot and
	// vmm.restore sites (nil-safe).
	faults *faults.Plane

	// Observability (nil-safe; see Instrument).
	liveVMs     *metrics.Gauge
	boots       *metrics.Counter
	bootDur     *metrics.Histogram
	restores    *metrics.Counter
	restoreDur  *metrics.Histogram
	snapshots   *metrics.Counter
	snapshotDur *metrics.Histogram
	warmResumes *metrics.Counter
}

// New returns a hypervisor on the given host and network router.
func New(host *mem.Host, router *netsim.Router) *Hypervisor {
	return &Hypervisor{Host: host, Router: router, vms: make(map[string]*MicroVM)}
}

// Instrument attaches the hypervisor to a metrics registry: live VM
// count, kernel boots (the cold path), snapshot restores with their
// latency histogram (the paper's headline quantity — Figure 6's ~12 ms
// Fireworks start-up), and snapshot captures.
func (h *Hypervisor) Instrument(reg *metrics.Registry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.liveVMs = reg.Gauge("vmm_live_vms")
	h.boots = reg.Counter("vmm_kernel_boots_total")
	h.bootDur = reg.Histogram("vmm_kernel_boot_duration")
	h.restores = reg.Counter("vmm_snapshot_restores_total")
	h.restoreDur = reg.Histogram("vmm_snapshot_restore_duration")
	h.snapshots = reg.Counter("vmm_snapshots_taken_total")
	h.snapshotDur = reg.Histogram("vmm_snapshot_capture_duration")
	h.warmResumes = reg.Counter("vmm_warm_resumes_total")
}

// AttachFaults connects the hypervisor to a fault-injection plane:
// kernel boots and snapshot restores consult it before doing work.
func (h *Hypervisor) AttachFaults(p *faults.Plane) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.faults = p
}

// MicroVM is one simulated Firecracker microVM.
type MicroVM struct {
	ID     string
	Config Config
	FS     *fs.MemFS

	hv    *Hypervisor
	state State
	space *mem.Space
	mmds  map[string]string

	// Network plumbing (nil until SetupNetwork).
	Namespace *netsim.Namespace
	Tap       *netsim.Tap
	External  netsim.Addr
	GuestIP   netsim.Addr

	// booted tracks whether the guest kernel has booted (fresh boot or
	// via snapshot restore).
	booted bool
	// fromSnapshot records the snapshot this VM was restored from.
	fromSnapshot *Snapshot
	// regions maps content kinds to the snapshot regions this VM has
	// mapped, so execution dirtying can CoW-split the right pages.
	mapped []*mem.Region
	// dirtyCursor tracks how many bytes of mapped snapshot memory this
	// VM has already dirtied.
	dirtyCursor uint64
}

// State returns the VM's lifecycle state.
func (v *MicroVM) State() State { return v.state }

// Space exposes the VM's guest-physical address space for memory
// accounting (PSS/RSS measurements by the experiment harness).
func (v *MicroVM) Space() *mem.Space { return v.space }

// RestoredFrom returns the snapshot this VM was resumed from, or nil.
func (v *MicroVM) RestoredFrom() *Snapshot { return v.fromSnapshot }

// CreateVM creates a stopped microVM shell (the Firecracker process and
// API socket), charging the create cost to clock.
func (h *Hypervisor) CreateVM(cfg Config, clock *vclock.Clock) (*MicroVM, error) {
	if cfg.VCPUs <= 0 || cfg.MemBytes == 0 {
		return nil, fmt.Errorf("vmm: invalid config %+v", cfg)
	}
	h.mu.Lock()
	h.nextID++
	id := fmt.Sprintf("fc-%04d", h.nextID)
	h.mu.Unlock()

	clock.Advance(CostVMCreate)
	v := &MicroVM{
		ID:     id,
		Config: cfg,
		FS:     fs.NewMemFS(),
		hv:     h,
		state:  StateCreated,
		space:  h.Host.NewSpace(id),
		mmds:   make(map[string]string),
	}
	// VMM process overhead (Firecracker process + virtio queues).
	v.space.AllocPrivate(mem.KindAnon, mem.PagesFor(CostVMMOverheadBytes))
	h.mu.Lock()
	h.vms[id] = v
	h.mu.Unlock()
	h.liveVMs.Add(1)
	return v, nil
}

// BootKernel boots the guest kernel in a freshly created VM (the cold
// path), charging boot time and allocating the kernel's private pages.
func (v *MicroVM) BootKernel(clock *vclock.Clock) error {
	return v.BootKernelTraced(clock, nil)
}

// BootKernelTraced is BootKernel under an event scope: the boot emits a
// "vmm" event (and any injected fault emits its own at the boot site).
func (v *MicroVM) BootKernelTraced(clock *vclock.Clock, sc *events.Scope) error {
	if v.state != StateCreated {
		return fmt.Errorf("%w: boot in %s", ErrBadState, v.state)
	}
	if err := v.hv.faults.InjectTraced(faults.SiteVMMBoot, clock, sc, 0); err != nil {
		return fmt.Errorf("vmm: boot of %s: %w", v.ID, err)
	}
	clock.Advance(CostKernelBoot)
	v.hv.boots.Inc()
	v.hv.bootDur.ObserveDurationExemplar(CostKernelBoot, uint64(sc.TraceID()), clock.Now())
	v.space.AllocPrivate(mem.KindKernel, mem.PagesFor(CostKernelBytes))
	v.booted = true
	v.state = StateRunning
	sc.Instant("vmm", "boot", clock.Now(), events.A("vm", v.ID))
	return nil
}

// AllocGuest allocates private guest memory of a kind (runtime image,
// libraries, heap) — the fresh-boot path where nothing is shared.
func (v *MicroVM) AllocGuest(kind mem.Kind, bytes uint64) error {
	if v.state != StateRunning {
		return fmt.Errorf("%w: alloc in %s", ErrBadState, v.state)
	}
	v.space.AllocPrivate(kind, mem.PagesFor(bytes))
	return nil
}

// Pause keeps the VM resident but not running (the warm-pool state).
func (v *MicroVM) Pause() error {
	if v.state != StateRunning {
		return fmt.Errorf("%w: pause in %s", ErrBadState, v.state)
	}
	v.state = StatePaused
	return nil
}

// ResumeWarm resumes a paused VM, charging the warm-start cost.
func (v *MicroVM) ResumeWarm(clock *vclock.Clock) error {
	return v.ResumeWarmTraced(clock, nil)
}

// ResumeWarmTraced is ResumeWarm under an event scope.
func (v *MicroVM) ResumeWarmTraced(clock *vclock.Clock, sc *events.Scope) error {
	if v.state != StatePaused {
		return fmt.Errorf("%w: warm resume in %s", ErrBadState, v.state)
	}
	clock.Advance(CostWarmResume)
	v.state = StateRunning
	v.hv.warmResumes.Inc()
	sc.Instant("vmm", "warm-resume", clock.Now(), events.A("vm", v.ID))
	return nil
}

// Stop tears the VM down, releasing its memory and network namespace.
func (v *MicroVM) Stop() error {
	if v.state == StateStopped {
		return fmt.Errorf("%w: stop in %s", ErrBadState, v.state)
	}
	v.state = StateStopped
	v.space.Free()
	if v.Namespace != nil {
		if err := v.hv.Router.DeleteNamespace(v.Namespace.Name()); err != nil {
			return err
		}
		v.Namespace = nil
	}
	v.hv.mu.Lock()
	delete(v.hv.vms, v.ID)
	v.hv.mu.Unlock()
	v.hv.liveVMs.Add(-1)
	return nil
}

// SetMMDS stores metadata visible to the guest via the MMDS endpoint;
// this is how Fireworks tells a resumed clone its instance identity
// (fcID) without touching the snapshotted memory.
func (v *MicroVM) SetMMDS(key, value string) { v.mmds[key] = value }

// MMDS reads guest-visible metadata.
func (v *MicroVM) MMDS(key string) (string, bool) {
	val, ok := v.mmds[key]
	return val, ok
}

// VMCount returns the number of live microVMs.
func (h *Hypervisor) VMCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.vms)
}

// SetupNetwork gives the VM its own network namespace, tap device, and
// NAT rule (§3.5). Every VM restored from the same snapshot has the
// same guest IP; isolation comes from the per-VM namespace. The cost is
// charged to clock.
func (h *Hypervisor) SetupNetwork(v *MicroVM, guestIP netsim.Addr, clock *vclock.Clock) error {
	if v.Namespace != nil {
		return fmt.Errorf("vmm: %s already has a namespace", v.ID)
	}
	clock.Advance(CostNetNSSetup)
	ns, err := h.Router.CreateNamespace("ns-" + v.ID)
	if err != nil {
		return err
	}
	tap := &netsim.Tap{Name: "tap0", Guest: guestIP, MAC: "AA:FC:00:00:00:01"}
	if err := h.Router.AttachTap(ns, tap); err != nil {
		_ = h.Router.DeleteNamespace(ns.Name())
		return err
	}
	ext, err := h.Router.AllocExternal(ns, guestIP)
	if err != nil {
		// Release the half-built namespace; the caller only tears down
		// network state it was actually handed.
		_ = h.Router.DeleteNamespace(ns.Name())
		return err
	}
	v.Namespace = ns
	v.Tap = tap
	v.External = ext
	v.GuestIP = guestIP
	// Conntrack and tap buffers are host-side but attributed to the VM.
	v.space.AllocPrivate(mem.KindAnon, mem.PagesFor(CostNetOverheadBytes))
	return nil
}

// DirtyDuringExecution models the guest writing bytes of *new* memory
// while running: pages mapped from a snapshot are CoW-split first (in
// region order), any remainder becomes fresh private heap. Pages this
// VM already dirtied do not consume the budget — dirtying N bytes grows
// the VM's private footprint by N bytes. For fresh-boot VMs (nothing
// mapped) it all lands as private heap. Calling it repeatedly
// accumulates, matching long-running guests dirtying more over time.
func (v *MicroVM) DirtyDuringExecution(bytes uint64) {
	if v.state != StateRunning {
		return
	}
	remaining := mem.PagesFor(bytes)
	// CoW-split mapped snapshot pages beyond what we already dirtied.
	cursor := int(v.dirtyCursor / mem.PageSize)
	for _, r := range v.mapped {
		if cursor >= r.Pages() {
			cursor -= r.Pages()
			continue
		}
		// Each step takes as many pages as budget remains; pages some
		// DirtyKind call already split fault nothing, and the next step
		// carries the unspent budget on past them.
		for cursor < r.Pages() && remaining > 0 {
			end := min(cursor+remaining, r.Pages())
			remaining -= v.space.DirtyRange(r, cursor, end)
			v.dirtyCursor += uint64(end-cursor) * mem.PageSize
			cursor = end
		}
		cursor = 0
	}
	if remaining > 0 {
		v.space.AllocPrivate(mem.KindHeap, remaining)
	}
}

// DirtyKind models the guest writing bytes into memory of one content
// kind: pages of mapped snapshot regions of that kind are CoW-split
// first; any remainder becomes private memory of that kind. Used for
// targeted dirtying (heap churn; Numba's MCJIT re-linking of duplicated
// JIT modules on resume, §5.5.2).
func (v *MicroVM) DirtyKind(kind mem.Kind, bytes uint64) {
	if v.state != StateRunning || bytes == 0 {
		return
	}
	remaining := mem.PagesFor(bytes)
	for _, r := range v.mapped {
		if remaining == 0 {
			return
		}
		if r.Kind() != kind {
			continue
		}
		n := min(r.Pages(), remaining)
		v.space.DirtyRange(r, 0, n)
		remaining -= n
	}
	if remaining > 0 {
		v.space.AllocPrivate(kind, remaining)
	}
}
