package vmm

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/chunk"
	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/vclock"
)

// newRestoredFS is the root filesystem a restored clone sees: in real
// Firecracker each clone gets a copy-on-write block device over the
// snapshotted disk; here each clone starts from an independent image.
func newRestoredFS() *fs.MemFS { return fs.NewMemFS() }

// layoutSeed derives the address-space layout identity of a snapshot
// image (FNV-1a over the unique snapshot id, whitened by SplitMix64).
// The guest kernel rolled its ASLR dice exactly once — at the boot that
// produced this image — so the seed is a pure function of the image.
func layoutSeed(id string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// SnapshotKind distinguishes what the snapshot captured, for the
// paper's §5.5 factor analysis.
type SnapshotKind string

// Snapshot kinds.
const (
	// SnapOSOnly is taken right after the guest OS boots (the "VM-level
	// OS snapshot" factor): kernel pages are in the image, the language
	// runtime is not.
	SnapOSOnly SnapshotKind = "os-only"
	// SnapPostLoad is taken after the runtime booted and the function
	// loaded, but before any JIT compilation.
	SnapPostLoad SnapshotKind = "post-load"
	// SnapPostJIT is the Fireworks snapshot: runtime loaded, function
	// loaded, and all user code JIT-compiled.
	SnapPostJIT SnapshotKind = "post-jit"
)

// RegionSpec sizes one shared memory region of a snapshot image.
type RegionSpec struct {
	Kind  mem.Kind
	Bytes uint64
	// Content identifies the bytes in this region for content-addressed
	// chunking: regions with the same Content class hash to the same
	// chunk IDs across snapshots, so a shared pool stores them once
	// (e.g. "base:kernel" for every guest kernel, "fn:<name>_<codehash>"
	// for one function's private heap). Empty means the region is
	// unique to this snapshot — no cross-image dedup.
	Content string
}

// Snapshot is a VM-level memory snapshot: a set of shareable page
// regions (mapped MAP_PRIVATE by every restored VM), the serialized
// device/network identity, and an opaque guest-state handle that the
// framework layer uses to reconstruct the language runtime at the
// resume point.
type Snapshot struct {
	ID   string
	Kind SnapshotKind
	// GuestIP is the snapshotted guest's network identity; every clone
	// wakes up with this same address (§3.5).
	GuestIP netsim.Addr
	// GuestState carries the runtime continuation (owned by the
	// framework layer; the hypervisor treats it as opaque bytes).
	GuestState any
	// ResidentWorkingSetBytes is how much of the image a restored VM
	// faults in before it can run (drives restore latency).
	ResidentWorkingSetBytes uint64
	// LayoutSeed identifies the address-space layout baked into the
	// image: every clone restored from this snapshot shares it (the
	// ASLR-entropy concern of §6). Re-generating the snapshot draws a
	// fresh seed, restoring layout diversity across snapshot
	// generations.
	LayoutSeed uint64
	// ContentKey identifies the image content for invalidation:
	// Fireworks keys function snapshots {function_id}_{code_hash}, so
	// redeploying changed code yields a new key and the stale image is
	// invalidated rather than silently reused.
	ContentKey string
	// BaseKey names the shared base-runtime (os-only/post-load) image
	// this snapshot is a delta over, if any. The store refuses to evict
	// a base image while deltas depending on it are resident.
	BaseKey string

	mu       sync.Mutex
	regions  []*mem.Region
	holds    int // stores holding the image; see Hold
	total    uint64
	host     *mem.Host
	manifest *chunk.Manifest
	ws       *WorkingSetRecord
}

// WorkingSetRecord is a REAP-style record of the chunks a restored VM
// actually touched (resident-set prefix plus the pages execution
// dirtied), captured on the first restore and replayed on later ones
// with sequential reads instead of demand page faults.
type WorkingSetRecord struct {
	// ChunkIDs are the hot chunks in image layout order.
	ChunkIDs []uint64
	// Pages is how many pages the record covers (drives replay cost).
	Pages int
	// Bytes is the byte extent of the recorded chunks.
	Bytes uint64
}

// Hold records that a store keeps the image. The snapshot owns its
// regions: when the last holder lets go (Release) it releases them to
// the host, which drops each once no microVM maps it. An image no store
// ever held keeps its regions.
func (s *Snapshot) Hold() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.holds++
}

// Release drops one Hold.
func (s *Snapshot) Release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.holds--; s.holds == 0 {
		for _, r := range s.regions {
			r.Release()
		}
	}
}

// TotalBytes returns the snapshot image size on disk.
func (s *Snapshot) TotalBytes() uint64 { return s.total }

// Manifest returns the image's content-addressed chunk manifest.
func (s *Snapshot) Manifest() *chunk.Manifest { return s.manifest }

// WorkingSet returns the recorded REAP working set, or nil before the
// first restore has been observed.
func (s *Snapshot) WorkingSet() *WorkingSetRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ws
}

// RecordWorkingSet captures the working set a restored VM actually
// touched, from the host's fault telemetry: for each snapshot region,
// the chunks covering the eagerly-faulted resident prefix plus the
// chunks containing every page the VM CoW-split during execution. The
// record is kept on the snapshot (first writer wins — the record is a
// property of the image, not of one clone) and returned.
func (s *Snapshot) RecordWorkingSet(v *MicroVM) *WorkingSetRecord {
	rec := &WorkingSetRecord{}
	s.mu.Lock()
	regions := append([]*mem.Region(nil), s.regions...)
	s.mu.Unlock()
	remaining := s.ResidentWorkingSetBytes
	for i, r := range regions {
		chunks := s.manifest.RegionChunks(i)
		// The resident prefix is faulted front-to-back across the image
		// layout (kernel entry, runtime text, function heap), so each
		// region consumes the head of the remaining resident budget.
		prefix := uint64(r.Pages()) * mem.PageSize
		if prefix > remaining {
			prefix = remaining
		}
		remaining -= prefix
		hot := map[int]bool{}
		for ci := range chunks {
			if uint64(ci)*chunk.Size < prefix {
				hot[ci] = true
			}
		}
		for _, page := range v.space.DirtiedPagesIn(r) {
			if ci := int(uint64(page) * mem.PageSize / chunk.Size); ci < len(chunks) {
				hot[ci] = true
			}
		}
		for ci, c := range chunks {
			if !hot[ci] {
				continue
			}
			rec.ChunkIDs = append(rec.ChunkIDs, c.ID)
			rec.Bytes += c.Bytes
		}
	}
	rec.Pages = mem.PagesFor(rec.Bytes)
	s.mu.Lock()
	if s.ws == nil {
		s.ws = rec
	} else {
		rec = s.ws
	}
	s.mu.Unlock()
	return rec
}

// TakeSnapshotTraced serializes a running VM's memory into a snapshot
// image. The caller describes the guest memory layout (regions by kind)
// and the resident working set; creation time is charged to clock, and
// the capture cost histogram carries sc's trace (nil for none) as its
// exemplar. The source VM keeps running (Firecracker pauses and resumes
// it around serialization, which is inside the charged cost).
func (h *Hypervisor) TakeSnapshotTraced(v *MicroVM, kind SnapshotKind, specs []RegionSpec, workingSet uint64, guestState any, clock *vclock.Clock, sc *events.Scope) (*Snapshot, error) {
	if v.state != StateRunning && v.state != StatePaused {
		return nil, fmt.Errorf("%w: snapshot in %s", ErrBadState, v.state)
	}
	var total uint64
	for _, spec := range specs {
		total += spec.Bytes
	}
	if total == 0 {
		return nil, fmt.Errorf("vmm: snapshot of %s has no memory regions", v.ID)
	}
	if total > guestMemBytes {
		return nil, fmt.Errorf("vmm: snapshot regions (%d bytes) exceed guest memory (%d bytes)", total, guestMemBytes)
	}
	captureCost := CostSnapshotBase + time.Duration(total)*CostSnapshotPerByte
	clock.Charge("snapshot-capture", captureCost)
	h.snapshots.Inc()
	h.snapshotDur.ObserveDurationExemplar(captureCost, uint64(sc.TraceID()), clock.Now())

	snap := &Snapshot{
		ID:                      "snap-" + v.ID,
		Kind:                    kind,
		GuestIP:                 "192.168.0.2", // the canonical guest address baked into every image
		GuestState:              guestState,
		ResidentWorkingSetBytes: workingSet,
		LayoutSeed:              layoutSeed("snap-" + v.ID),
		total:                   total,
		host:                    h.Host,
	}
	contents := make([]chunk.Region, 0, len(specs))
	for _, spec := range specs {
		snap.regions = append(snap.regions, h.Host.NewRegion(string(spec.Kind)+"-"+snap.ID, spec.Kind, mem.PagesFor(spec.Bytes)))
		class := spec.Content
		if class == "" {
			// No declared content class: the region's bytes are unique
			// to this image, so hash under the snapshot's own identity.
			class = "img:" + snap.ID
		}
		contents = append(contents, chunk.Region{Class: class, Kind: string(spec.Kind), Bytes: spec.Bytes})
	}
	snap.manifest = chunk.Build(contents)
	return snap, nil
}

// RestoreOptions tunes the restore path.
type RestoreOptions struct {
	// Prefetch, when set, replays a recorded working set with
	// sequential reads instead of demand-faulting the whole resident
	// set (the REAP record-and-prefetch optimization the paper cites as
	// complementary). The record comes from Snapshot.RecordWorkingSet
	// on an earlier restore; a nil record demand-pages as before.
	Prefetch *WorkingSetRecord
}

// Restore creates a new microVM from a snapshot: a fresh VM shell whose
// address space maps every snapshot region copy-on-write. Restore cost
// (fixed + working-set page faults) is charged to clock. The caller is
// responsible for network setup and for reviving the guest state.
func (h *Hypervisor) Restore(snap *Snapshot, opts RestoreOptions, clock *vclock.Clock) (*MicroVM, error) {
	return h.RestoreTraced(snap, opts, clock, nil)
}

// RestoreTraced is Restore under an event scope: the restore emits a
// "vmm" event carrying the new VM's identity (and any injected fault
// emits its own at the restore site).
func (h *Hypervisor) RestoreTraced(snap *Snapshot, opts RestoreOptions, clock *vclock.Clock, sc *events.Scope) (*MicroVM, error) {
	if err := h.faults.InjectTraced(faults.SiteVMMRestore, clock, sc, 0); err != nil {
		return nil, fmt.Errorf("vmm: restore of %s: %w", snap.ID, err)
	}
	h.mu.Lock()
	h.nextID++
	id := fmt.Sprintf("fw-%04d", h.nextID)
	h.mu.Unlock()

	perPage := CostRestorePerPage
	pages := mem.PagesFor(snap.ResidentWorkingSetBytes)
	if rec := opts.Prefetch; rec != nil {
		// Replaying the record loads exactly the recorded chunks with
		// sequential reads — cheaper per page than random demand
		// faults, and no page outside the record is touched eagerly.
		perPage = CostRestorePerPageREAP
		pages = rec.Pages
	}
	restoreCost := CostRestoreBase + time.Duration(pages)*perPage
	clock.Charge("vm-restore", restoreCost)
	h.restores.Inc()
	h.restoreDur.ObserveDurationExemplar(restoreCost, uint64(sc.TraceID()), clock.Now())

	v := &MicroVM{
		ID:     id,
		FS:     nil, // set below: restored VMs see the snapshotted rootfs
		hv:     h,
		state:  StateRunning,
		space:  h.Host.NewSpace(id),
		mmds:   make(map[string]string),
		booted: true,
	}
	// A restored VM has its own (CoW at the block level in real
	// Firecracker; independent here) view of the root filesystem.
	v.FS = newRestoredFS()
	v.space.AllocPrivate(mem.KindAnon, mem.PagesFor(CostVMMOverheadBytes))
	snap.mu.Lock()
	for _, r := range snap.regions {
		v.space.MapRegion(r)
		v.mapped = append(v.mapped, r)
	}
	snap.mu.Unlock()
	h.mu.Lock()
	h.vms[id] = v
	h.mu.Unlock()
	h.liveVMs.Add(1)
	sc.Instant("vmm", "restore", clock.Now(),
		events.A("vm", id), events.A("snapshot", snap.ID))
	return v, nil
}
