package mem

import (
	"math"
	"testing"
	"testing/quick"
)

func newTestHost() *Host { return NewHost(1<<30, 0.6) }

func TestHostBasics(t *testing.T) {
	h := NewHost(128<<30, 0.6)
	if h.Capacity() != 128<<30 {
		t.Fatal("capacity")
	}
	capacity := float64(uint64(128 << 30))
	if h.SwapThreshold() != uint64(capacity*0.6) {
		t.Fatalf("threshold = %d", h.SwapThreshold())
	}
	if h.Used() != 0 || h.Swapping() {
		t.Fatal("fresh host not empty")
	}
}

func TestBadSwappinessPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHost(1<<30, 1.5)
}

func TestPrivateAllocationAccounting(t *testing.T) {
	h := newTestHost()
	s := h.NewSpace("a")
	s.AllocPrivate(KindHeap, 100)
	if h.Used() != 100*PageSize {
		t.Fatalf("Used = %d", h.Used())
	}
	if s.RSS() != 100*PageSize {
		t.Fatalf("RSS = %d", s.RSS())
	}
	if s.PSS() != 100*PageSize {
		t.Fatalf("PSS = %v", s.PSS())
	}
	s.Free()
	if h.Used() != 0 {
		t.Fatalf("Used after space free = %d", h.Used())
	}
}

func TestRegionSharing(t *testing.T) {
	h := newTestHost()
	r := h.NewRegion("snap", KindKernel, 1000)
	if h.Used() != 0 {
		t.Fatal("unmapped region consumes memory")
	}
	a := h.NewSpace("a")
	a.MapRegion(r)
	if h.Used() != 1000*PageSize {
		t.Fatalf("Used = %d after first map", h.Used())
	}
	b := h.NewSpace("b")
	b.MapRegion(r)
	// Second mapping shares frames: no growth.
	if h.Used() != 1000*PageSize {
		t.Fatalf("Used = %d after second map", h.Used())
	}
	if regions := h.Report().Regions; len(regions) != 1 || regions[0].Sharers != 2 {
		t.Fatalf("lineage = %+v, want one region with 2 sharers", regions)
	}
	// PSS splits evenly.
	if a.PSS() != 500*PageSize || b.PSS() != 500*PageSize {
		t.Fatalf("PSS = %v / %v", a.PSS(), b.PSS())
	}
	// RSS counts the full mapping.
	if a.RSS() != 1000*PageSize {
		t.Fatalf("RSS = %d", a.RSS())
	}
	// USS: no page is unique to either.
	if a.USS() != 0 {
		t.Fatalf("USS = %d", a.USS())
	}
	b.Free()
	if a.USS() != 1000*PageSize {
		t.Fatalf("USS after b freed = %d", a.USS())
	}
	a.Free()
	if h.Used() != 0 {
		t.Fatalf("Used after all freed = %d", h.Used())
	}
}

func TestDoubleMapPanics(t *testing.T) {
	h := newTestHost()
	r := h.NewRegion("snap", KindKernel, 10)
	s := h.NewSpace("a")
	s.MapRegion(r)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double map")
		}
	}()
	s.MapRegion(r)
}

func TestCoWSplit(t *testing.T) {
	h := newTestHost()
	r := h.NewRegion("snap", KindHeap, 100)
	a := h.NewSpace("a")
	b := h.NewSpace("b")
	a.MapRegion(r)
	b.MapRegion(r)

	if a.DirtyRange(r, 0, 1) != 1 {
		t.Fatal("first write did not fault")
	}
	if a.DirtyRange(r, 0, 1) != 0 {
		t.Fatal("second write faulted again")
	}
	// One private copy materialized.
	if h.Used() != 101*PageSize {
		t.Fatalf("Used = %d", h.Used())
	}
	// a: 1 private + 99 shared/2. b: 99 shared/2 + 1 page solely b's.
	wantA := float64(PageSize) + 99*float64(PageSize)/2
	if math.Abs(a.PSS()-wantA) > 1 {
		t.Fatalf("a.PSS = %v, want %v", a.PSS(), wantA)
	}
	wantB := 99*float64(PageSize)/2 + float64(PageSize) // page 0 base now solely b's
	if math.Abs(b.PSS()-wantB) > 1 {
		t.Fatalf("b.PSS = %v, want %v", b.PSS(), wantB)
	}
	// b's USS: page 0's base frame is now referenced only by b.
	if b.USS() != PageSize {
		t.Fatalf("b.USS = %d", b.USS())
	}
	if a.USS() != PageSize {
		t.Fatalf("a.USS = %d (its private copy)", a.USS())
	}
}

func TestDirtyPagesCount(t *testing.T) {
	h := newTestHost()
	r := h.NewRegion("snap", KindHeap, 50)
	a := h.NewSpace("a")
	a.MapRegion(r)
	if n := a.DirtyRange(r, 0, 30); n != 30 {
		t.Fatalf("faults = %d", n)
	}
	if n := a.DirtyRange(r, 0, 40); n != 10 {
		t.Fatalf("incremental faults = %d", n)
	}
	if n := a.DirtyRange(r, 0, 50); n != 10 {
		t.Fatalf("whole-region dirty = %d new faults", n)
	}
	if got := h.Report().Spaces[0].PrivateBytes; got != 50*PageSize {
		t.Fatalf("private pages = %d", got/PageSize)
	}
}

func TestDirtyUnmappedPanics(t *testing.T) {
	h := newTestHost()
	r := h.NewRegion("snap", KindHeap, 10)
	s := h.NewSpace("a")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.DirtyRange(r, 0, 1)
}

func TestUseAfterFreePanics(t *testing.T) {
	h := newTestHost()
	s := h.NewSpace("a")
	s.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on use-after-free")
		}
	}()
	s.AllocPrivate(KindHeap, 1)
}

func TestBreakdownByKind(t *testing.T) {
	h := newTestHost()
	r := h.NewRegion("kern", KindKernel, 100)
	s := h.NewSpace("a")
	s.MapRegion(r)
	s.AllocPrivate(KindHeap, 10)
	bd := h.Report().Spaces[0].ByKind
	if bd[KindKernel] != 100*PageSize {
		t.Fatalf("kernel share = %v", bd[KindKernel])
	}
	if bd[KindHeap] != 10*PageSize {
		t.Fatalf("heap = %v", bd[KindHeap])
	}
	// Sum of breakdown equals PSS.
	var sum float64
	for _, v := range bd {
		sum += v
	}
	if math.Abs(sum-s.PSS()) > 1 {
		t.Fatalf("breakdown sum %v != PSS %v", sum, s.PSS())
	}
}

// TestPSSConservation checks the fundamental smem invariant on random
// sharing/dirtying patterns: the PSS over all spaces sums to exactly the
// host's used physical memory.
func TestPSSConservation(t *testing.T) {
	type op struct {
		Space uint8
		Page  uint16
	}
	f := func(regionPages uint16, nSpaces uint8, dirties []op, privates []uint8) bool {
		pages := int(regionPages%512) + 1
		n := int(nSpaces%6) + 1
		h := NewHost(64<<30, 0.6)
		r := h.NewRegion("snap", KindHeap, pages)
		spaces := make([]*Space, n)
		for i := range spaces {
			spaces[i] = h.NewSpace("s")
			spaces[i].MapRegion(r)
		}
		for i, d := range dirties {
			if i > 200 {
				break
			}
			spaces[int(d.Space)%n].DirtyRange(r, int(d.Page)%pages, int(d.Page)%pages+1)
		}
		for i, p := range privates {
			if i >= n {
				break
			}
			spaces[i].AllocPrivate(KindAnon, int(p))
		}
		var pssSum float64
		for _, s := range spaces {
			pssSum += s.PSS()
		}
		return math.Abs(pssSum-float64(h.Used())) < 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestUsedNeverNegativeOnTeardown frees spaces in random order and
// checks host accounting returns exactly to zero.
func TestUsedNeverNegativeOnTeardown(t *testing.T) {
	f := func(order []uint8, dirtySeed uint16) bool {
		h := NewHost(64<<30, 0.6)
		r := h.NewRegion("snap", KindHeap, 64)
		const n = 4
		spaces := make([]*Space, n)
		for i := range spaces {
			spaces[i] = h.NewSpace("s")
			spaces[i].MapRegion(r)
			spaces[i].DirtyRange(r, 0, int(dirtySeed)%65)
			spaces[i].AllocPrivate(KindAnon, i*3)
		}
		freed := make(map[int]bool)
		for _, o := range order {
			i := int(o) % n
			if !freed[i] {
				spaces[i].Free()
				freed[i] = true
			}
		}
		for i := 0; i < n; i++ {
			if !freed[i] {
				spaces[i].Free()
			}
		}
		return h.Used() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPagesFor(t *testing.T) {
	cases := []struct {
		bytes uint64
		want  int
	}{
		{0, 0}, {1, 1}, {PageSize, 1}, {PageSize + 1, 2}, {10 * PageSize, 10},
	}
	for _, tc := range cases {
		if got := PagesFor(tc.bytes); got != tc.want {
			t.Errorf("PagesFor(%d) = %d, want %d", tc.bytes, got, tc.want)
		}
	}
}

func TestSwapThresholdCrossing(t *testing.T) {
	h := NewHost(100*PageSize, 0.6)
	s := h.NewSpace("a")
	s.AllocPrivate(KindHeap, 60)
	if h.Swapping() {
		t.Fatal("swapping at exactly the threshold")
	}
	s.AllocPrivate(KindHeap, 1)
	if !h.Swapping() {
		t.Fatal("not swapping past the threshold")
	}
}

func TestKindsSorted(t *testing.T) {
	ks := Kinds()
	if len(ks) != 6 {
		t.Fatalf("kinds = %v", ks)
	}
	for i := 1; i < len(ks); i++ {
		if ks[i-1] >= ks[i] {
			t.Fatalf("kinds not sorted: %v", ks)
		}
	}
}
