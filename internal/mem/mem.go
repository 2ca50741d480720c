// Package mem models guest-physical memory for the Fireworks simulation:
// page-granular sharing of snapshot images across microVMs, copy-on-write
// splitting, and the PSS (proportional set size) accounting that the
// paper's memory experiments (Figures 10 and 12) are built on.
//
// # Model
//
// Memory is grouped into Regions: named sets of pages whose frames are
// shared by every address space that maps the region (exactly how a
// MAP_PRIVATE snapshot file mapping behaves in Firecracker). When a guest
// writes to a shared page, the page is CoW-split: the writing address
// space gets a private copy, and the base frame's sharer count for that
// page drops by one. Per-page facts are kept as runs of consecutive
// pages (runs.go), so a 512 MiB guest that dirties one working set
// costs a handful of runs rather than 131072 entries, an operation
// costs per run rather than per page, and PSS remains page-exact.
//
// A Host tracks total physical frame usage against a capacity and a
// swappiness threshold, reproducing the "launch microVMs until swapping
// starts" methodology of §5.4. It also tracks every live Space and
// Region, from which Report derives the smem-style fleet table and the
// per-region page lineage (see report.go and docs/memory.md). A region
// lives until its owner releases it and no space maps it.
//
// All Space and Region state is guarded by the owning Host's mutex, so
// a fleet report can walk every address space concurrently with the
// spaces' owners mutating them.
package mem

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/metrics"
)

// PageSize is the guest page size in bytes (4 KiB, matching x86-64).
const PageSize = 4096

// Kind labels what a region or private allocation holds. The factor
// analysis in Figure 12 reports savings per kind.
type Kind string

const (
	KindKernel  Kind = "kernel"  // guest kernel + boot pages
	KindRuntime Kind = "runtime" // language runtime text/data
	KindLibrary Kind = "library" // loaded packages/modules
	KindJITCode Kind = "jitcode" // JIT-compiled machine code
	KindHeap    Kind = "heap"    // application heap
	KindAnon    Kind = "anon"    // miscellaneous anonymous memory
)

// Host models the physical memory of one server.
type Host struct {
	mu           sync.Mutex
	capacity     uint64 // bytes of physical memory
	swappiness   float64
	usedPages    uint64
	privatePages uint64          // pages not backed by a shared region frame
	maxUsedPages uint64          // high-water mark of usedPages
	rssPages     uint64          // sum of every live space's RSS, in pages
	regions      map[int]*Region // live regions by creation seq
	spaces       map[int]*Space  // live address spaces by creation seq
	nextRegion   int
	nextSpace    int

	// Observability (nil-safe; see Instrument).
	cowFaults  *metrics.Counter
	cowByKind  map[Kind]*metrics.Counter
	swapEvents *metrics.Counter
	usedGauge  *metrics.Gauge
	privGauge  *metrics.Gauge
	sharedG    *metrics.Gauge
	swapGauge  *metrics.Gauge
	privFrames *metrics.Gauge
	sharFrames *metrics.Gauge
	swapFrames *metrics.Gauge
	highWaterG *metrics.Gauge
	pssHist    *metrics.Histogram
}

// NewHost returns a host with the given physical capacity in bytes and a
// vm.swappiness-style threshold: swapping begins once usage exceeds
// swappiness (as a fraction, e.g. 0.6) of capacity.
func NewHost(capacity uint64, swappiness float64) *Host {
	if swappiness <= 0 || swappiness > 1 {
		panic(fmt.Sprintf("mem: swappiness %v out of (0,1]", swappiness))
	}
	return &Host{
		capacity:   capacity,
		swappiness: swappiness,
		regions:    make(map[int]*Region),
		spaces:     make(map[int]*Space),
	}
}

// pssBuckets are the mem_pss_bytes histogram bounds: 1 MiB … 1 GiB,
// log2-spaced — the range the paper's per-microVM PSS numbers live in.
func pssBuckets() []float64 {
	var bounds []float64
	for b := uint64(1 << 20); b <= 1<<30; b <<= 1 {
		bounds = append(bounds, float64(b))
	}
	return bounds
}

// Instrument attaches the host to a metrics registry. CoW faults are
// counted in total and by page kind; physical usage is exported as
// byte gauges split into privately-owned pages and shared region frames
// (the quantity the paper's PSS/USS experiments, Figures 10 and 12, are
// about) plus the matching frame-count gauges, the swapped-frame
// estimate, and the usage high-water mark. mem_pss_bytes observes each
// space's final PSS at teardown (smem's per-process column, sampled at
// the end of life).
func (h *Host) Instrument(reg *metrics.Registry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cowFaults = reg.Counter("mem_cow_faults_total")
	h.cowByKind = make(map[Kind]*metrics.Counter)
	for _, k := range Kinds() {
		h.cowByKind[k] = reg.Counter(metrics.Name("mem_cow_faults_by_kind", "kind", string(k)))
	}
	h.swapEvents = reg.Counter("mem_swap_events_total")
	h.usedGauge = reg.Gauge("mem_used_bytes")
	h.privGauge = reg.Gauge("mem_private_bytes")
	h.sharedG = reg.Gauge("mem_shared_bytes")
	h.swapGauge = reg.Gauge("mem_swapping")
	h.privFrames = reg.Gauge("mem_private_frames")
	h.sharFrames = reg.Gauge("mem_shared_frames")
	h.swapFrames = reg.Gauge("mem_swapped_frames")
	h.highWaterG = reg.Gauge("mem_high_water_bytes")
	h.pssHist = reg.HistogramWith("mem_pss_bytes", "bytes", pssBuckets())
}

// publishLocked refreshes the usage gauges; caller holds h.mu.
func (h *Host) publishLocked() {
	h.usedGauge.Set(int64(h.usedPages) * PageSize)
	h.privGauge.Set(int64(h.privatePages) * PageSize)
	h.sharedG.Set(int64(h.usedPages-h.privatePages) * PageSize)
	h.privFrames.Set(int64(h.privatePages))
	h.sharFrames.Set(int64(h.usedPages - h.privatePages))
	h.swapFrames.Set(int64(h.swappedPagesLocked()))
	h.highWaterG.Set(int64(h.maxUsedPages) * PageSize)
}

// swappedPagesLocked estimates the frames the kernel would have pushed
// to swap: usage beyond the swappiness threshold. Caller holds h.mu.
func (h *Host) swappedPagesLocked() uint64 {
	thr := uint64(float64(h.capacity)*h.swappiness) / PageSize
	if h.usedPages <= thr {
		return 0
	}
	return h.usedPages - thr
}

// Capacity returns the host's physical memory in bytes.
func (h *Host) Capacity() uint64 { return h.capacity }

// SwapThreshold returns the usage level (bytes) at which swapping starts.
func (h *Host) SwapThreshold() uint64 {
	return uint64(float64(h.capacity) * h.swappiness)
}

// Used returns the bytes of physical memory currently in use across all
// regions and private allocations.
func (h *Host) Used() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.usedPages * PageSize
}

// Swapping reports whether current usage has crossed the swap threshold.
func (h *Host) Swapping() bool { return h.Used() > h.SwapThreshold() }

// adjustLocked moves the host's page accounting: pages is the total
// physical frame delta, private the subset that is privately owned
// (anonymous allocations and CoW copies). Shared frame usage is derived
// as total - private. Crossing the swap threshold upward counts one
// swap event. Every caller's delta is one-signed page by page, so
// applying it whole crosses the threshold (and sets the high-water
// mark) exactly where applying it a page at a time would. Caller holds
// h.mu.
func (h *Host) adjustLocked(pages, private int64) {
	next := int64(h.usedPages) + pages
	if next < 0 {
		panic("mem: host page accounting went negative")
	}
	nextPriv := int64(h.privatePages) + private
	if nextPriv < 0 {
		panic("mem: host private-page accounting went negative")
	}
	thr := int64(float64(h.capacity)*h.swappiness) / PageSize
	wasSwapping := int64(h.usedPages) > thr
	h.usedPages = uint64(next)
	h.privatePages = uint64(nextPriv)
	if h.usedPages > h.maxUsedPages {
		h.maxUsedPages = h.usedPages
	}
	nowSwapping := next > thr
	if nowSwapping && !wasSwapping {
		h.swapEvents.Inc()
	}
	if nowSwapping != wasSwapping {
		v := int64(0)
		if nowSwapping {
			v = 1
		}
		h.swapGauge.Set(v)
	}
	h.publishLocked()
}

// NewRegion creates a shareable region of pages on this host. The
// region's frames occupy physical memory only while at least one address
// space maps it, and the host tracks it until Release.
func (h *Host) NewRegion(name string, kind Kind, pages int) *Region {
	if pages < 0 {
		panic("mem: negative region size")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nextRegion++
	r := &Region{
		host:  h,
		seq:   h.nextRegion,
		name:  fmt.Sprintf("%s#%d", name, h.nextRegion),
		kind:  kind,
		pages: pages,
	}
	h.regions[r.seq] = r
	return r
}

// Release tells the host the region's owner (its snapshot image) is
// gone; the host drops the region once no space maps it either.
func (r *Region) Release() {
	h := r.host
	h.mu.Lock()
	defer h.mu.Unlock()
	r.released = true
	if r.sharers == 0 {
		delete(h.regions, r.seq)
	}
}

// Region is a named group of pages shared CoW among address spaces.
type Region struct {
	host     *Host
	seq      int // creation order, for deterministic reports
	name     string
	kind     Kind
	pages    int
	sharers  int
	released bool   // the owner is done with it; see Release
	faults   uint64 // lifetime CoW faults attributed to this region
	// split counts, per page, the sharers that CoW-split it and therefore
	// no longer reference the base frame; pages outside every run have
	// none. A page every current sharer has split has no referent left:
	// its base frame is reclaimed (the file-backed page becomes evictable
	// page cache and stops counting against physical memory). That set is
	// derived from the counts, never stored — see residentLocked.
	split []run
}

// residentLocked returns how many of the region's base frames occupy
// physical memory: none while nothing maps it, otherwise every page at
// least one sharer still references. Each mutation reads it before and
// after, and the difference is the shared part of the host delta.
// Caller holds the host lock.
func (r *Region) residentLocked() int {
	if r.sharers == 0 {
		return 0
	}
	resident := r.pages
	for _, x := range r.split {
		if x.n == r.sharers {
			resident -= x.hi - x.lo
		}
	}
	return resident
}

// Kind returns the region's content label, and Pages its size in pages.
func (r *Region) Kind() Kind { return r.kind }
func (r *Region) Pages() int { return r.pages }

// Space is one address space (one microVM's guest-physical memory, or one
// container's memory image).
type Space struct {
	host    *Host
	seq     int // creation order, for deterministic reports
	name    string
	refs    []*regionRef // in mapping order
	private map[Kind]int // private page counts by kind (anon + CoW copies)
	freed   bool
}

type regionRef struct {
	region *Region
	dirty  []run // pages this space has CoW-split (every n is 1)
}

// ref returns the space's mapping of r, or nil.
func (s *Space) ref(r *Region) *regionRef {
	for _, ref := range s.refs {
		if ref.region == r {
			return ref
		}
	}
	return nil
}

// NewSpace creates an empty address space on the host and registers it
// for fleet reports; Free unregisters it.
func (h *Host) NewSpace(name string) *Space {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nextSpace++
	s := &Space{
		host:    h,
		seq:     h.nextSpace,
		name:    name,
		private: make(map[Kind]int),
	}
	h.spaces[s.seq] = s
	return s
}

// bySeq returns a host's live spaces or regions in creation order.
func bySeq[T any](m map[int]T) []T {
	seqs := make([]int, 0, len(m))
	for seq := range m {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	out := make([]T, len(seqs))
	for i, seq := range seqs {
		out[i] = m[seq]
	}
	return out
}

// MapRegion maps a shared region into this space. Mapping the same region
// twice is an error in the simulated stack and panics.
func (s *Space) MapRegion(r *Region) {
	h := s.host
	h.mu.Lock()
	defer h.mu.Unlock()
	s.mustLive()
	if s.ref(r) != nil {
		panic(fmt.Sprintf("mem: region %s mapped twice into %s", r.name, s.name))
	}
	s.refs = append(s.refs, &regionRef{region: r})
	h.regions[r.seq] = r // a released region is live again while mapped
	// Frames materialize on first mapping, and a new sharer re-references
	// base frames that were reclaimed when every previous sharer had
	// split them.
	before := r.residentLocked()
	r.sharers++
	h.rssPages += uint64(r.pages)
	h.adjustLocked(int64(r.residentLocked()-before), 0)
}

// DirtyRange CoW-splits pages [lo,hi) of a mapped region and returns the
// number of actual faults: pages of the range this space had not split
// before. The whole range is booked under one lock acquisition at a cost
// that follows the number of runs involved, not the number of pages.
func (s *Space) DirtyRange(r *Region, lo, hi int) int {
	h := s.host
	h.mu.Lock()
	defer h.mu.Unlock()
	s.mustLive()
	ref := s.ref(r)
	if ref == nil {
		panic(fmt.Sprintf("mem: dirty of unmapped region %s in %s", r.name, s.name))
	}
	if lo < 0 || hi > r.pages {
		panic(fmt.Sprintf("mem: pages [%d,%d) out of range for region %s (%d pages)", lo, hi, r.name, r.pages))
	}
	fresh := uncovered(ref.dirty, lo, hi)
	if len(fresh) == 0 {
		return 0
	}
	before := r.residentLocked()
	for _, x := range fresh {
		ref.dirty = add(ref.dirty, x.lo, x.hi, 1)
		r.split = add(r.split, x.lo, x.hi, 1)
	}
	faults := span(fresh)
	r.faults += uint64(faults)
	s.private[r.kind] += faults
	h.cowFaults.Add(int64(faults))
	h.cowByKind[r.kind].Add(int64(faults))
	// Each CoW copy is a new private page; the rest of the delta is base
	// frames reclaimed because this was their last referent.
	h.adjustLocked(int64(faults+r.residentLocked()-before), int64(faults))
	return faults
}

// DirtiedPagesIn returns the pages of r this space has CoW-split, in
// ascending page order — the per-space fault telemetry the snapshot
// layer turns into REAP-style working-set records. Returns nil if the
// region is not mapped here.
func (s *Space) DirtiedPagesIn(r *Region) []int {
	h := s.host
	h.mu.Lock()
	defer h.mu.Unlock()
	s.mustLive()
	ref := s.ref(r)
	if ref == nil {
		return nil
	}
	pages := make([]int, 0, span(ref.dirty))
	for _, x := range ref.dirty {
		for p := x.lo; p < x.hi; p++ {
			pages = append(pages, p)
		}
	}
	return pages
}

// AllocPrivate allocates n private anonymous pages of the given kind.
func (s *Space) AllocPrivate(kind Kind, pages int) {
	if pages < 0 {
		panic("mem: negative private allocation")
	}
	h := s.host
	h.mu.Lock()
	defer h.mu.Unlock()
	s.mustLive()
	s.private[kind] += pages
	h.rssPages += uint64(pages)
	h.adjustLocked(int64(pages), int64(pages))
}

// Free releases everything the space holds: region mappings (dropping
// per-page split counts, reclaiming base frames that lost their last
// referent) and private pages. The space's final PSS is observed into
// mem_pss_bytes (smem's per-process sample, taken at end of life) and
// the space is unregistered from fleet reports; it is unusable
// afterwards.
func (s *Space) Free() {
	h := s.host
	h.mu.Lock()
	defer h.mu.Unlock()
	s.mustLive()
	if h.pssHist != nil {
		h.pssHist.Observe(s.pssLocked())
	}
	h.rssPages -= s.rssPagesLocked()
	// Base frames: a departing sharer releases every resident frame of a
	// region it was the last to map, and otherwise orphans the frames of
	// pages every remaining sharer has split.
	var base int64
	for _, ref := range s.refs {
		r := ref.region
		before := r.residentLocked()
		for _, x := range ref.dirty {
			r.split = add(r.split, x.lo, x.hi, -1)
		}
		r.sharers--
		base += int64(r.residentLocked() - before)
		if r.sharers == 0 && r.released {
			delete(h.regions, r.seq)
		}
	}
	// s.private holds the CoW copies as well as the anonymous pages.
	private := int64(s.privatePagesLocked())
	h.adjustLocked(base-private, -private)
	delete(h.spaces, s.seq)
	s.refs = nil
	s.private = nil
	s.freed = true
}

func (s *Space) mustLive() {
	if s.freed {
		panic(fmt.Sprintf("mem: use of freed space %s", s.name))
	}
}

func (s *Space) privatePagesLocked() uint64 {
	var pages uint64
	for _, n := range s.private {
		pages += uint64(n)
	}
	return pages
}

// eachSharedLocked walks the base frames this space still references,
// as stretches of pages with one referent count each: first the pages
// some other sharer split but this space did not (referents = sharers
// minus splitters), then the pages nobody split (referents = sharers).
// PSS and USS are both sums over these stretches.
func (ref *regionRef) eachSharedLocked(f func(pages, referents int)) {
	r := ref.region
	clean, j := r.pages, 0
	for _, x := range r.split {
		clean -= x.hi - x.lo
		// Every page this space split is inside some run of r.split, so
		// ref.dirty[j] never starts before x.
		own := 0
		for j < len(ref.dirty) && ref.dirty[j].lo < x.hi {
			d := ref.dirty[j]
			own += min(d.hi, x.hi) - max(d.lo, x.lo)
			if d.hi > x.hi {
				break // d continues into the next run
			}
			j++
		}
		if n := x.hi - x.lo - own; n > 0 {
			f(n, r.sharers-x.n)
		}
	}
	if clean > 0 {
		f(clean, r.sharers)
	}
}

// RSS returns the resident set size in bytes: all mapped shared pages
// plus all private pages (how `top` would see the microVM process).
func (s *Space) RSS() uint64 {
	h := s.host
	h.mu.Lock()
	defer h.mu.Unlock()
	s.mustLive()
	return s.rssPagesLocked() * PageSize
}

func (s *Space) rssPagesLocked() uint64 {
	pages := s.privatePagesLocked()
	for _, ref := range s.refs {
		// Shared pages still referenced (not CoW-split by this space).
		pages += uint64(ref.region.pages - span(ref.dirty))
	}
	return pages
}

// PSS returns the proportional set size in bytes, exactly as smem
// computes it: each private page counts fully; each shared page counts
// 1/N where N is the number of spaces still referencing that base frame.
func (s *Space) PSS() float64 {
	h := s.host
	h.mu.Lock()
	defer h.mu.Unlock()
	s.mustLive()
	return s.pssLocked()
}

func (s *Space) pssLocked() float64 {
	pss := float64(s.privatePagesLocked()) * PageSize
	for _, ref := range s.refs {
		pss += ref.pssLocked()
	}
	return pss
}

// pssLocked is the space's proportional share of the region's base
// frames (its CoW copies are private pages, counted by the space).
func (ref *regionRef) pssLocked() float64 {
	var pss float64
	ref.eachSharedLocked(func(pages, referents int) {
		pss += float64(pages) * PageSize / float64(referents)
	})
	return pss
}

// USS returns the unique set size in bytes: private pages plus shared
// pages mapped by no other space.
func (s *Space) USS() uint64 {
	h := s.host
	h.mu.Lock()
	defer h.mu.Unlock()
	s.mustLive()
	return s.ussLocked()
}

func (s *Space) ussLocked() uint64 {
	pages := s.privatePagesLocked()
	for _, ref := range s.refs {
		ref.eachSharedLocked(func(n, referents int) {
			if referents == 1 {
				pages += uint64(n)
			}
		})
	}
	return pages * PageSize
}

func (s *Space) breakdownLocked() map[Kind]float64 {
	out := make(map[Kind]float64)
	for kind, n := range s.private {
		out[kind] += float64(n) * PageSize
	}
	for _, ref := range s.refs {
		out[ref.region.kind] += ref.pssLocked()
	}
	return out
}

// Kinds returns the deterministic ordering of kinds used in reports.
func Kinds() []Kind {
	ks := []Kind{KindKernel, KindRuntime, KindLibrary, KindJITCode, KindHeap, KindAnon}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// PagesFor returns the number of pages needed to hold n bytes.
func PagesFor(bytes uint64) int {
	return int((bytes + PageSize - 1) / PageSize)
}
