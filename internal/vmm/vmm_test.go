package vmm

import (
	"errors"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/vclock"
)

func newHV() *Hypervisor {
	return New(mem.NewHost(64<<30, 0.6), netsim.NewRouter(1024))
}

func TestVMLifecycle(t *testing.T) {
	hv := newHV()
	clock := vclock.New()
	v := hv.CreateVM(clock)
	if v.State() != StateCreated {
		t.Fatalf("state = %v", v.State())
	}
	if clock.Now() != CostVMCreate {
		t.Fatalf("create cost = %v", clock.Now())
	}
	if err := v.BootKernelTraced(clock, nil); err != nil {
		t.Fatal(err)
	}
	if v.State() != StateRunning {
		t.Fatalf("state = %v", v.State())
	}
	if clock.Now() != CostVMCreate+CostKernelBoot {
		t.Fatalf("boot cost = %v", clock.Now())
	}
	if err := v.Pause(); err != nil {
		t.Fatal(err)
	}
	warmMark := clock.Now()
	if err := v.ResumeWarm(clock); err != nil {
		t.Fatal(err)
	}
	if clock.Since(warmMark) != CostWarmResume {
		t.Fatalf("warm resume cost = %v", clock.Since(warmMark))
	}
	if err := v.Stop(); err != nil {
		t.Fatal(err)
	}
	if hv.VMCount() != 0 {
		t.Fatalf("VMCount = %d", hv.VMCount())
	}
	if hv.Host.Used() != 0 {
		t.Fatalf("leaked %d bytes", hv.Host.Used())
	}
}

func TestStateMachineRejectsBadTransitions(t *testing.T) {
	hv := newHV()
	clock := vclock.New()
	v := hv.CreateVM(clock)
	if err := v.Pause(); !errors.Is(err, ErrBadState) {
		t.Fatalf("pause before boot: %v", err)
	}
	if err := v.ResumeWarm(clock); !errors.Is(err, ErrBadState) {
		t.Fatalf("resume before pause: %v", err)
	}
	v.BootKernelTraced(clock, nil)
	if err := v.BootKernelTraced(clock, nil); !errors.Is(err, ErrBadState) {
		t.Fatalf("double boot: %v", err)
	}
	v.Stop()
	if err := v.Stop(); !errors.Is(err, ErrBadState) {
		t.Fatalf("double stop: %v", err)
	}
}

func TestKernelBootAllocatesMemory(t *testing.T) {
	hv := newHV()
	clock := vclock.New()
	v := hv.CreateVM(clock)
	before := hv.Host.Used()
	v.BootKernelTraced(clock, nil)
	grown := hv.Host.Used() - before
	if grown != uint64(mem.PagesFor(CostKernelBytes))*mem.PageSize {
		t.Fatalf("kernel pages = %d bytes", grown)
	}
	before = hv.Host.Used()
	if err := v.AllocGuest(mem.KindRuntime, 64<<20); err != nil {
		t.Fatal(err)
	}
	if hv.Host.Used()-before != uint64(mem.PagesFor(64<<20))*mem.PageSize {
		t.Fatal("runtime alloc not accounted")
	}
}

func TestMMDS(t *testing.T) {
	hv := newHV()
	clock := vclock.New()
	v := hv.CreateVM(clock)
	v.SetMMDS("fcID", "fc42")
	got, ok := v.MMDS("fcID")
	if !ok || got != "fc42" {
		t.Fatalf("MMDS = %q %v", got, ok)
	}
	if _, ok := v.MMDS("missing"); ok {
		t.Fatal("phantom MMDS key")
	}
}

func TestSetupNetwork(t *testing.T) {
	hv := newHV()
	clock := vclock.New()
	v := hv.CreateVM(clock)
	v.BootKernelTraced(clock, nil)
	if err := hv.SetupNetwork(v, "192.168.0.2", clock); err != nil {
		t.Fatal(err)
	}
	if v.External == "" || v.Namespace == nil || v.Tap == nil {
		t.Fatalf("network incomplete: %+v", v)
	}
	if err := hv.SetupNetwork(v, "192.168.0.2", clock); err == nil {
		t.Fatal("double network setup accepted")
	}
	// Teardown releases the namespace.
	v.Stop()
	if hv.Router.NamespaceCount() != 0 {
		t.Fatal("namespace leaked")
	}
}

func takeTestSnapshot(t *testing.T, hv *Hypervisor, clock *vclock.Clock) *Snapshot {
	t.Helper()
	v := hv.CreateVM(clock)
	v.BootKernelTraced(clock, nil)
	snap, err := hv.TakeSnapshotTraced(v, SnapPostJIT, []RegionSpec{
		{Kind: mem.KindHeap, Bytes: 8 << 20},
		{Kind: mem.KindKernel, Bytes: CostKernelBytes},
		{Kind: mem.KindRuntime, Bytes: 64 << 20},
	}, 32<<20, "guest-state", clock, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Stop(); err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestSnapshotCreation(t *testing.T) {
	hv := newHV()
	clock := vclock.New()
	mark := clock.Now()
	snap := takeTestSnapshot(t, hv, clock)
	_ = mark
	wantBytes := uint64(8<<20) + CostKernelBytes + 64<<20
	if snap.TotalBytes() != wantBytes {
		t.Fatalf("TotalBytes = %d, want %d", snap.TotalBytes(), wantBytes)
	}
	if snap.GuestState != "guest-state" {
		t.Fatal("guest state lost")
	}
	for _, l := range hv.Host.Report().Regions {
		if l.Sharers != 0 {
			t.Fatalf("fresh snapshot region %s has %d sharers", l.Region, l.Sharers)
		}
	}
}

func TestSnapshotRejectsOversize(t *testing.T) {
	hv := newHV()
	clock := vclock.New()
	v := hv.CreateVM(clock)
	v.BootKernelTraced(clock, nil)
	_, err := hv.TakeSnapshotTraced(v, SnapOSOnly,
		[]RegionSpec{{Kind: mem.KindKernel, Bytes: 513 << 20}}, 0, nil, clock, nil)
	if err == nil {
		t.Fatal("snapshot larger than guest memory accepted")
	}
	if _, err := hv.TakeSnapshotTraced(v, SnapOSOnly, nil, 0, nil, clock, nil); err == nil {
		t.Fatal("empty snapshot accepted")
	}
}

func TestRestoreSharesMemoryCoW(t *testing.T) {
	hv := newHV()
	clock := vclock.New()
	snap := takeTestSnapshot(t, hv, clock)
	baseline := hv.Host.Used()

	a, err := hv.Restore(snap, RestoreOptions{}, clock)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := hv.Host.Used()
	b, err := hv.Restore(snap, RestoreOptions{}, clock)
	if err != nil {
		t.Fatal(err)
	}
	afterSecond := hv.Host.Used()

	// First restore materializes the image + VMM overhead; the second
	// adds only VMM overhead.
	firstGrowth := afterFirst - baseline
	secondGrowth := afterSecond - afterFirst
	if firstGrowth <= snap.TotalBytes() {
		t.Fatalf("first restore grew %d, want > image size %d", firstGrowth, snap.TotalBytes())
	}
	if secondGrowth >= snap.TotalBytes()/10 {
		t.Fatalf("second restore grew %d — not sharing", secondGrowth)
	}
	if regions := hv.Host.Report().Regions; len(regions) != 3 || regions[0].Sharers != 2 {
		t.Fatalf("lineage = %+v, want 3 regions with 2 sharers", regions)
	}
	if a.State() != StateRunning || b.State() != StateRunning {
		t.Fatal("restored VMs not running")
	}

	// Dirtying in one clone must not affect the other's view.
	a.DirtyDuringExecution(4 << 20)
	if b.Space().PSS() > a.Space().PSS() {
		t.Fatal("clean clone has more PSS than dirty clone")
	}
	a.Stop()
	b.Stop()
	if hv.Host.Used() != baseline {
		t.Fatalf("leak after stops: %d vs %d", hv.Host.Used(), baseline)
	}
}

func TestRestoreCostAndREAP(t *testing.T) {
	hv := newHV()
	setup := vclock.New()
	snap := takeTestSnapshot(t, hv, setup)

	// First restore demand-pages the full resident set and records the
	// working set actually touched.
	demand := vclock.New()
	v1, _ := hv.Restore(snap, RestoreOptions{}, demand)
	pages := mem.PagesFor(32 << 20)
	want := CostRestoreBase + time.Duration(pages)*CostRestorePerPage
	if demand.Now() != want {
		t.Fatalf("restore cost = %v, want %v", demand.Now(), want)
	}
	v1.DirtyDuringExecution(4 << 20)
	rec := snap.RecordWorkingSet(v1)
	if len(rec.ChunkIDs) == 0 || rec.Pages == 0 {
		t.Fatalf("empty working-set record: %+v", rec)
	}
	if snap.WorkingSet() != rec {
		t.Fatal("record not kept on the snapshot")
	}

	// Replaying the record prefetches with sequential reads — cheaper
	// than demand-faulting the resident set.
	reap := vclock.New()
	v2, _ := hv.Restore(snap, RestoreOptions{Prefetch: rec}, reap)
	if reap.Now() >= demand.Now() {
		t.Fatalf("REAP restore %v not faster than demand paging %v", reap.Now(), demand.Now())
	}
	wantReap := CostRestoreBase + time.Duration(rec.Pages)*CostRestorePerPageREAP
	if reap.Now() != wantReap {
		t.Fatalf("replay cost = %v, want %v", reap.Now(), wantReap)
	}

	// The record is a property of the image: a second capture from
	// another clone returns the first record, not a fresh one.
	if again := snap.RecordWorkingSet(v2); again != rec {
		t.Fatal("second capture replaced the image's record")
	}
	v1.Stop()
	v2.Stop()
}

func TestDirtyKindTargetsRegions(t *testing.T) {
	hv := newHV()
	clock := vclock.New()
	snap := takeTestSnapshot(t, hv, clock)
	v, _ := hv.Restore(snap, RestoreOptions{}, clock)
	defer v.Stop()

	// splitCopies returns the CoW copies of each kind's region.
	splitCopies := func() map[mem.Kind]int {
		out := map[mem.Kind]int{}
		for _, l := range hv.Host.Report().Regions {
			out[l.Kind] += l.SplitCopies
		}
		return out
	}
	private := func() uint64 { return hv.Host.Report().Spaces[0].PrivateBytes }
	before := private()
	v.DirtyKind(mem.KindRuntime, 4<<20)
	if got := splitCopies(); got[mem.KindRuntime] != mem.PagesFor(4<<20) || got[mem.KindKernel] != 0 {
		t.Fatalf("split copies after runtime DirtyKind = %v", got)
	}
	// Spilling beyond the region's size allocates private pages of the
	// same kind.
	v.DirtyKind(mem.KindHeap, 20<<20) // heap region is only 8 MiB
	if got := splitCopies()[mem.KindHeap]; got != mem.PagesFor(8<<20) {
		t.Fatalf("heap split copies = %d, want the whole 8 MiB region", got)
	}
	if got := private() - before; got != uint64(mem.PagesFor(24<<20))*mem.PageSize {
		t.Fatalf("private bytes grew %d after spill, want 24 MiB", got)
	}
}

func TestDirtyDuringExecutionAccumulates(t *testing.T) {
	hv := newHV()
	clock := vclock.New()
	snap := takeTestSnapshot(t, hv, clock)
	// Two clones so that CoW-splitting actually moves pages from shared
	// to private (with one sharer, PSS is invariant under splits).
	v, _ := hv.Restore(snap, RestoreOptions{}, clock)
	other, _ := hv.Restore(snap, RestoreOptions{}, clock)
	defer v.Stop()
	defer other.Stop()
	v.DirtyDuringExecution(10 << 20)
	first := v.Space().USS()
	v.DirtyDuringExecution(10 << 20)
	second := v.Space().USS()
	grown := float64(second - first)
	want := float64(10 << 20)
	if grown < want*0.99 || grown > want*1.01 {
		t.Fatalf("second dirty grew USS by %.0f, want ~%.0f", grown, want)
	}
	// With exactly two sharers PSS is symmetric under splits (the clean
	// clone becomes sole owner of each split page's base frame), but
	// the smem invariant must hold: PSS sums to host usage minus
	// host-side (non-guest) overheads, and both must account the 20 MiB
	// of new private data.
	pssSum := v.Space().PSS() + other.Space().PSS()
	if pssSum < float64(snap.TotalBytes()+20<<20) {
		t.Fatalf("PSS sum %.0f below image+dirty", pssSum)
	}
}

func TestSnapshotInBadStateFails(t *testing.T) {
	hv := newHV()
	clock := vclock.New()
	v := hv.CreateVM(clock)
	// Not booted yet.
	_, err := hv.TakeSnapshotTraced(v, SnapOSOnly,
		[]RegionSpec{{Kind: mem.KindKernel, Bytes: 1 << 20}}, 0, nil, clock, nil)
	if !errors.Is(err, ErrBadState) {
		t.Fatalf("err = %v", err)
	}
}
