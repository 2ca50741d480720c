// Package sandbox models the execution sandboxes the paper measures:
// Firecracker microVMs, plain containers (OpenWhisk/Docker) and gVisor
// sandboxes (Sentry/Gofer syscall interception). Each sandbox class
// carries a calibrated cost profile — creation, warm resume,
// per-operation disk and network I/O, per-syscall interception
// overhead. Table 1's qualitative traits also cover designs the paper
// only compares in prose (V8 isolates, Catalyzer).
//
// The I/O cost asymmetries here are what reproduce the paper's
// faas-diskio and faas-netlatency orderings: containers write through
// OverlayFS straight to the host page cache (cheapest), microVMs pay the
// virtio/9p boundary, and gVisor pays Sentry syscall interception plus
// Gofer file relays (most expensive by far).
package sandbox

import "time"

// Isolation grades a sandbox's isolation strength as Table 1 does.
type Isolation int

// Isolation levels.
const (
	IsolationLow    Isolation = iota // shared runtime process
	IsolationMedium                  // container (shared kernel)
	IsolationHigh                    // VM boundary
)

// String returns the Table 1 wording.
func (i Isolation) String() string {
	switch i {
	case IsolationHigh:
		return "High (VM)"
	case IsolationMedium:
		return "Medium (container)"
	default:
		return "Low (runtime)"
	}
}

// Class names a sandbox implementation.
type Class string

// Sandbox classes.
const (
	ClassFirecracker Class = "firecracker"
	ClassContainer   Class = "container"
	ClassGVisor      Class = "gvisor"
)

// Profile is the calibrated cost model of one sandbox class.
type Profile struct {
	// ColdCreate is sandbox creation from nothing (runc start, runsc +
	// Sentry boot, ...). For Firecracker the vmm package owns the
	// VM-create and kernel-boot costs instead.
	ColdCreate time.Duration
	// WarmResume unpauses a kept-alive sandbox.
	WarmResume time.Duration

	// Disk I/O: one operation costs DiskOpBase + size/KiB *
	// DiskPerKB. Reads and writes are modeled symmetrically; the
	// between-class ratio is what matters.
	DiskOpBase time.Duration
	DiskPerKB  time.Duration

	// Network: sending or receiving one message costs NetOpBase +
	// size/KiB * NetPerKB. For microVMs this includes the tap+NAT hop.
	NetOpBase time.Duration
	NetPerKB  time.Duration

	// SyscallOverhead is added per intercepted syscall (gVisor's
	// Sentry); zero elsewhere.
	SyscallOverhead time.Duration

	// ExecOverheadFactor taxes pure execution time by this fraction,
	// modeling Sentry's interception of the runtime's own syscalls
	// (mmap, futex, clock_gettime) during computation — the reason the
	// paper sees gVisor's *execution* lag too, not just its I/O.
	ExecOverheadFactor float64

	// InfraBytes is host memory attributed to sandbox infrastructure
	// (pause container, Sentry, ...), on top of guest memory.
	InfraBytes uint64
}

// Profiles returns the calibrated profile for a class.
func Profiles(c Class) Profile {
	switch c {
	case ClassFirecracker:
		return Profile{
			ColdCreate: 0, // owned by vmm: CostVMCreate + CostKernelBoot
			WarmResume: 0, // owned by vmm: CostWarmResume
			// virtio-blk/9p boundary: pricier than a host syscall,
			// far cheaper than Sentry+Gofer.
			DiskOpBase:      34 * time.Microsecond,
			DiskPerKB:       2600 * time.Nanosecond,
			NetOpBase:       105 * time.Microsecond, // includes tap+NAT
			NetPerKB:        900 * time.Nanosecond,
			SyscallOverhead: 0,
			InfraBytes:      0, // accounted by vmm (VMM process overhead)
		}
	case ClassContainer:
		return Profile{
			ColdCreate:      430 * time.Millisecond, // runc + image setup
			WarmResume:      18 * time.Millisecond,
			DiskOpBase:      16 * time.Microsecond, // OverlayFS -> host page cache
			DiskPerKB:       1100 * time.Nanosecond,
			NetOpBase:       78 * time.Microsecond,
			NetPerKB:        700 * time.Nanosecond,
			SyscallOverhead: 0,
			InfraBytes:      14 << 20,
		}
	case ClassGVisor:
		return Profile{
			// runsc + Sentry boot + platform security checks: slower
			// than plain runc, faster than a full VM boot (Fig. 6).
			ColdCreate: 1080 * time.Millisecond,
			WarmResume: 24 * time.Millisecond,
			// Sentry seccomp trap + Gofer 9P relay per file op.
			DiskOpBase:         440 * time.Microsecond,
			DiskPerKB:          11 * time.Microsecond,
			NetOpBase:          290 * time.Microsecond,
			NetPerKB:           2400 * time.Nanosecond,
			SyscallOverhead:    2200 * time.Nanosecond,
			ExecOverheadFactor: 0.14,     // Sentry tax on the runtime's own syscalls
			InfraBytes:         52 << 20, // Sentry + Gofer
		}
	default:
		panic("sandbox: unknown class " + string(c))
	}
}

// Traits is the qualitative Table 1 row for a platform.
type Traits struct {
	Platform         string
	Isolation        string
	Performance      string
	MemoryEfficiency string
}

// Table1 reproduces the paper's design-comparison matrix.
func Table1() []Traits {
	return []Traits{
		{"Firecracker (Amazon)", IsolationHigh.String(), "Medium (snapshot)", "High (snapshot)"},
		{"OpenWhisk (IBM)", IsolationMedium.String(), "Low (no optimization)", "Low (pre-launching)"},
		{"gVisor (Google)", IsolationMedium.String(), "Medium (snapshot)", "High (snapshot)"},
		{"Cloudflare Workers", IsolationLow.String(), "High (pre-launching)", "High (process sharing)"},
		{"Catalyzer", IsolationMedium.String(), "High (pre-launching)", "High (process sharing)"},
		{"Fireworks", IsolationHigh.String(), "Extreme (snapshot+JIT)", "Extreme (snapshot+JIT)"},
	}
}
