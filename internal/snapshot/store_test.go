package snapshot

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/vclock"
	"repro/internal/vmm"
)

// makeSnap builds a snapshot of roughly size bytes.
func makeSnap(t *testing.T, hv *vmm.Hypervisor, bytes uint64) *vmm.Snapshot {
	t.Helper()
	clock := vclock.New()
	v := hv.CreateVM(clock)
	if err := v.BootKernel(clock); err != nil {
		t.Fatal(err)
	}
	snap, err := hv.TakeSnapshot(v, []vmm.RegionSpec{{Kind: mem.KindHeap, Bytes: bytes}}, bytes/4, nil, clock)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Stop(); err != nil {
		t.Fatal(err)
	}
	return snap
}

func newHV() *vmm.Hypervisor {
	return vmm.New(mem.NewHost(64<<30, 0.6), netsim.NewRouter(64))
}

func TestPutGet(t *testing.T) {
	hv := newHV()
	s := NewStore(0)
	snap := makeSnap(t, hv, 10<<20)
	if err := s.Put("fn", snap); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("fn")
	if err != nil {
		t.Fatal(err)
	}
	if got != snap {
		t.Fatal("wrong snapshot returned")
	}
	if !s.Has("fn") || s.Has("other") {
		t.Fatal("Has wrong")
	}
	if s.UsedBytes() != snap.TotalBytes() {
		t.Fatalf("UsedBytes = %d", s.UsedBytes())
	}
}

func TestGetMissing(t *testing.T) {
	s := NewStore(0)
	if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestReplaceSameName(t *testing.T) {
	hv := newHV()
	s := NewStore(0)
	a := makeSnap(t, hv, 10<<20)
	b := makeSnap(t, hv, 20<<20)
	s.Put("fn", a)
	s.Put("fn", b)
	got, _ := s.Get("fn")
	if got != b {
		t.Fatal("replace did not take")
	}
	if s.UsedBytes() != b.TotalBytes() {
		t.Fatalf("UsedBytes = %d after replace", s.UsedBytes())
	}
}

func TestLRUEviction(t *testing.T) {
	hv := newHV()
	s := NewStore(100 << 20)
	for i := 0; i < 3; i++ {
		if err := s.Put(fmt.Sprintf("fn%d", i), makeSnap(t, hv, 40<<20)); err != nil {
			t.Fatal(err)
		}
	}
	// Budget holds 2 x 40 MiB; fn0 (oldest) must be gone.
	if s.Has("fn0") {
		t.Fatal("fn0 survived")
	}
	if !s.Has("fn1") || !s.Has("fn2") {
		t.Fatal("newer snapshots evicted")
	}
	if s.Evictions() != 1 {
		t.Fatalf("evictions = %d", s.Evictions())
	}
	// Touch fn1 so fn2 becomes the LRU victim.
	if _, err := s.Get("fn1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("fn3", makeSnap(t, hv, 40<<20)); err != nil {
		t.Fatal(err)
	}
	if s.Has("fn2") || !s.Has("fn1") || !s.Has("fn3") {
		t.Fatalf("LRU order wrong: %v", s.Names())
	}
}

func TestTooLarge(t *testing.T) {
	hv := newHV()
	s := NewStore(10 << 20)
	err := s.Put("big", makeSnap(t, hv, 50<<20))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestPinPreventsEviction(t *testing.T) {
	hv := newHV()
	s := NewStore(100 << 20)
	s.Put("fn0", makeSnap(t, hv, 40<<20))
	s.Put("fn1", makeSnap(t, hv, 40<<20))
	if err := s.Pin("fn0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("pin missing: %v", err)
	}
	// fn0 is pinned, so fn1 must be the victim despite being newer.
	if err := s.Put("fn2", makeSnap(t, hv, 40<<20)); err != nil {
		t.Fatal(err)
	}
	if !s.Has("fn0") || s.Has("fn1") {
		t.Fatalf("pin ignored: %v", s.Names())
	}
	// All pinned -> insertion fails.
	if err := s.Pin("fn2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("fn3", makeSnap(t, hv, 40<<20)); !errors.Is(err, ErrAllPinned) {
		t.Fatalf("err = %v", err)
	}
	s.Unpin("fn2")
	if err := s.Put("fn3", makeSnap(t, hv, 40<<20)); err != nil {
		t.Fatalf("after unpin: %v", err)
	}
}

// makeChunkedSnap builds a snapshot whose regions carry explicit
// content classes, so its chunks dedup against other snapshots sharing
// a class.
func makeChunkedSnap(t *testing.T, hv *vmm.Hypervisor, regions []vmm.RegionSpec) *vmm.Snapshot {
	t.Helper()
	clock := vclock.New()
	v := hv.CreateVM(clock)
	if err := v.BootKernel(clock); err != nil {
		t.Fatal(err)
	}
	snap, err := hv.TakeSnapshot(v, regions, 8<<20, nil, clock)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Stop(); err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestChunkDedupAccounting(t *testing.T) {
	hv := newHV()
	reg := metrics.NewRegistry()
	s := NewStore(0)
	s.Instrument(reg)
	base := vmm.RegionSpec{Kind: mem.KindRuntime, Bytes: 64 << 20, Content: "base:runtime:test"}
	a := makeChunkedSnap(t, hv, []vmm.RegionSpec{
		{Kind: mem.KindHeap, Bytes: 8 << 20, Content: "fn:a"}, base})
	b := makeChunkedSnap(t, hv, []vmm.RegionSpec{
		{Kind: mem.KindHeap, Bytes: 8 << 20, Content: "fn:b"}, base})
	if err := s.Put("a", a); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", b); err != nil {
		t.Fatal(err)
	}
	if got, want := s.LogicalBytes(), a.TotalBytes()+b.TotalBytes(); got != want {
		t.Fatalf("LogicalBytes = %d, want %d", got, want)
	}
	// b's base chunks dedup against a's: only its 8 MiB heap is new.
	if got, want := s.UsedBytes(), a.TotalBytes()+8<<20; got != want {
		t.Fatalf("UsedBytes = %d, want %d", got, want)
	}
	if reg.Counter("snapshot_chunks_deduped_total").Value() == 0 {
		t.Fatal("no chunks counted as deduped")
	}
	// Removing a keeps the shared base chunks alive for b.
	s.Remove("a")
	if got, want := s.UsedBytes(), b.TotalBytes(); got != want {
		t.Fatalf("UsedBytes after Remove = %d, want %d", got, want)
	}
}

func TestContentKeyChangeCountsInvalidation(t *testing.T) {
	hv := newHV()
	s := NewStore(0)
	reg := metrics.NewRegistry()
	s.Instrument(reg)
	invalidations := reg.Counter("snapshot_store_invalidations_total")
	a := makeSnap(t, hv, 8<<20)
	a.ContentKey = "fn_aaa"
	if err := s.Put("fn", a); err != nil {
		t.Fatal(err)
	}
	b := makeSnap(t, hv, 8<<20)
	b.ContentKey = "fn_aaa"
	// Same code hash: a plain replace, not an invalidation.
	if err := s.Put("fn", b); err != nil {
		t.Fatal(err)
	}
	if invalidations.Value() != 0 {
		t.Fatalf("invalidations = %d after same-key replace", invalidations.Value())
	}
	c := makeSnap(t, hv, 8<<20)
	c.ContentKey = "fn_bbb"
	if err := s.Put("fn", c); err != nil {
		t.Fatal(err)
	}
	if invalidations.Value() != 1 {
		t.Fatalf("invalidations = %d after code-hash change", invalidations.Value())
	}
}

func TestBaseWithResidentDeltaNeverEvicted(t *testing.T) {
	hv := newHV()
	baseSpec := vmm.RegionSpec{Kind: mem.KindRuntime, Bytes: 64 << 20, Content: "base:runtime:test"}
	base := makeChunkedSnap(t, hv, []vmm.RegionSpec{baseSpec})
	mkDelta := func(name string) *vmm.Snapshot {
		snap := makeChunkedSnap(t, hv, []vmm.RegionSpec{
			{Kind: mem.KindHeap, Bytes: 16 << 20, Content: "fn:" + name}, baseSpec})
		snap.BaseKey = "base"
		return snap
	}
	// Budget fits the 64 MiB base plus one 16 MiB delta, never two.
	s := NewStore(64<<20 + 24<<20)
	if err := s.Put("base", base); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("fn-a", mkDelta("a")); err != nil {
		t.Fatal(err)
	}
	// The second delta must evict fn-a — never the base, even though the
	// base is the LRU entry.
	if err := s.Put("fn-b", mkDelta("b")); err != nil {
		t.Fatal(err)
	}
	if !s.Has("base") {
		t.Fatal("base evicted while a delta depended on it")
	}
	if s.Has("fn-a") || !s.Has("fn-b") {
		t.Fatalf("wrong victim: %v", s.Names())
	}
	// Pin the only evictable entry: the base is dependency-protected and
	// fn-b is pinned, so Put must fail ErrAllPinned and roll back its
	// provisional chunk refs.
	if err := s.Pin("fn-b"); err != nil {
		t.Fatal(err)
	}
	used := s.UsedBytes()
	if err := s.Put("fn-c", mkDelta("c")); !errors.Is(err, ErrAllPinned) {
		t.Fatalf("err = %v, want ErrAllPinned", err)
	}
	if s.UsedBytes() != used {
		t.Fatalf("failed Put leaked chunk refs: used %d, want %d", s.UsedBytes(), used)
	}
	// Dropping the last delta makes the base evictable again.
	s.Unpin("fn-b")
	s.Remove("fn-b")
	if err := s.Put("fn-c", mkDelta("c")); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentStoreAccess(t *testing.T) {
	hv := newHV()
	const goroutines, perG = 4, 6
	snaps := make([][]*vmm.Snapshot, goroutines)
	for g := range snaps {
		snaps[g] = make([]*vmm.Snapshot, perG)
		for i := range snaps[g] {
			snaps[g][i] = makeSnap(t, hv, 20<<20)
		}
	}
	s := NewStore(200 << 20)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, snap := range snaps[g] {
				name := fmt.Sprintf("g%d-fn%d", g, i)
				if err := s.Put(name, snap); err != nil {
					continue
				}
				s.Get(name)
				if s.Pin(name) == nil {
					s.Unpin(name)
				}
				s.UsedBytes()
				s.Names()
			}
		}(g)
	}
	wg.Wait()
}

func TestRemove(t *testing.T) {
	hv := newHV()
	s := NewStore(0)
	s.Put("fn", makeSnap(t, hv, 10<<20))
	s.Remove("fn")
	if s.Has("fn") || s.UsedBytes() != 0 {
		t.Fatal("remove incomplete")
	}
	s.Remove("fn") // idempotent
}

func TestNamesSorted(t *testing.T) {
	hv := newHV()
	s := NewStore(0)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		s.Put(n, makeSnap(t, hv, 1<<20))
	}
	names := s.Names()
	if len(names) != 3 || names[0] != "alpha" || names[2] != "zeta" {
		t.Fatalf("names = %v", names)
	}
}

// TestReleasedImageKeepsRegionsWhileMapped follows one image's regions
// on the host: they stay while any store holds the image, and a
// replaced, deleted image keeps them until the last microVM restored
// from it stops.
func TestReleasedImageKeepsRegionsWhileMapped(t *testing.T) {
	hv := newHV()
	local, remote := NewStore(0), NewRemote()
	clock := vclock.New()
	lineage := func() (names []string) {
		for _, l := range hv.Host.Report().Regions {
			names = append(names, l.Region)
		}
		return names
	}
	run := func(snap *vmm.Snapshot) *vmm.MicroVM {
		v, err := hv.Restore(snap, vmm.RestoreOptions{}, clock)
		if err != nil {
			t.Fatal(err)
		}
		v.DirtyDuringExecution(1 << 20)
		return v
	}
	a := makeSnap(t, hv, 10<<20)
	if err := local.Put("fn", a); err != nil {
		t.Fatal(err)
	}
	remote.Upload("fn", a, clock)
	v := run(a)
	want := lineage()
	if len(want) != 1 {
		t.Fatalf("lineage with one restored image = %v, want its one region", want)
	}

	// Replaced locally, the image is still held remotely: its faulted
	// region stays even with nothing mapping it.
	if err := local.Put("fn", makeSnap(t, hv, 20<<20)); err != nil {
		t.Fatal(err)
	}
	if err := v.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := lineage(); !slices.Equal(got, want) {
		t.Fatalf("lineage while the remote holds the image = %v, want %v", got, want)
	}

	// No store holds it any more, but a VM restored from it still maps
	// it: the region stays until that VM stops.
	v = run(a)
	remote.Delete("fn")
	if got := lineage(); !slices.Equal(got, want) {
		t.Fatalf("lineage while a VM maps the released image = %v, want %v", got, want)
	}
	if err := v.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := lineage(); len(got) != 0 {
		t.Fatalf("lineage after the last mapper stopped = %v, want none", got)
	}
}
