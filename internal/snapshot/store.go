// Package snapshot stores VM snapshot images on (simulated) disk. The
// paper's §6 notes that per-function snapshots cost disk space and
// proposes bounding it with a replacement policy that keeps frequently
// accessed functions' snapshots; Store implements that — a byte budget
// with least-recently-used eviction, plus pinning for snapshots that
// must survive (e.g. while being restored) — over a content-addressed
// chunk pool: images are split into fixed-size chunks (internal/chunk)
// and the pool stores each distinct chunk once, so a post-JIT function
// snapshot costs only its *delta* over the shared base-runtime image
// and disk usage is the unique-chunk footprint, not the sum of image
// sizes. See docs/snapshots.md.
package snapshot

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/chunk"
	"repro/internal/metrics"
	"repro/internal/vmm"
)

// Errors returned by the store.
var (
	ErrNotFound  = errors.New("snapshot: not found (never installed or evicted)")
	ErrTooLarge  = errors.New("snapshot: image exceeds store budget")
	ErrAllPinned = errors.New("snapshot: budget exceeded and all images pinned")
)

// Store is a bounded snapshot repository keyed by function name, backed
// by a refcounted chunk pool shared across all resident images.
type Store struct {
	mu      sync.Mutex
	budget  uint64
	used    uint64 // unique chunk bytes resident in the pool
	seq     uint64
	entries map[string]*entry
	pool    map[uint64]*poolChunk
	// baseDeps[name] counts resident delta images whose BaseKey is
	// name: a base-runtime image with live dependents is never evicted.
	baseDeps  map[string]int
	evictions int

	// Observability (nil-safe; see Instrument).
	hits          *metrics.Counter
	misses        *metrics.Counter
	evictCnt      *metrics.Counter
	invalCnt      *metrics.Counter
	chunksStored  *metrics.Counter
	chunksDeduped *metrics.Counter
	usedGauge     *metrics.Gauge
}

// Instrument attaches the store to a metrics registry: Get hits and
// misses (a miss means the image was evicted or never installed and
// the invocation pays a remote fetch or reinstall), LRU evictions,
// content-key invalidations, per-chunk pool traffic (stored = new bytes
// admitted, deduped = chunks already resident via another image), and
// resident disk bytes (unique chunk footprint).
func (s *Store) Instrument(reg *metrics.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hits = reg.Counter("snapshot_store_hits_total")
	s.misses = reg.Counter("snapshot_store_misses_total")
	s.evictCnt = reg.Counter("snapshot_store_evictions_total")
	s.invalCnt = reg.Counter("snapshot_store_invalidations_total")
	s.chunksStored = reg.Counter("snapshot_chunks_stored_total")
	s.chunksDeduped = reg.Counter("snapshot_chunks_deduped_total")
	s.usedGauge = reg.Gauge("snapshot_store_used_bytes")
}

type poolChunk struct {
	bytes uint64
	refs  int
}

type entry struct {
	snap     *vmm.Snapshot
	chunks   []chunk.Chunk
	size     uint64 // logical image size (manifest total)
	lastUsed uint64
	pins     int
}

// NewStore returns a store with the given disk budget in bytes (0 means
// unbounded).
func NewStore(budget uint64) *Store {
	return &Store{
		budget:   budget,
		entries:  make(map[string]*entry),
		pool:     make(map[uint64]*poolChunk),
		baseDeps: make(map[string]int),
	}
}

// manifestChunks returns the image's chunk list; a snapshot without a
// manifest (not produced by TakeSnapshot) degrades to one opaque chunk.
func manifestChunks(snap *vmm.Snapshot) []chunk.Chunk {
	if m := snap.Manifest(); m != nil {
		return m.Chunks()
	}
	one := chunk.Build([]chunk.Region{{Class: "img:" + snap.ID, Bytes: snap.TotalBytes()}})
	return one.Chunks()
}

// uniqueBytes is the pool footprint of a chunk list alone (distinct
// chunk IDs counted once); caller need not hold the lock.
func uniqueBytes(chunks []chunk.Chunk) uint64 {
	seen := make(map[uint64]struct{}, len(chunks))
	var total uint64
	for _, c := range chunks {
		if _, ok := seen[c.ID]; ok {
			continue
		}
		seen[c.ID] = struct{}{}
		total += c.Bytes
	}
	return total
}

// Put stores (or replaces) the snapshot for a function. Only the bytes
// of chunks not already resident are admitted to the pool; LRU images
// are evicted as needed to fit the budget (chunks shared with survivors
// — including the incoming image — stay resident). Replacing an entry
// whose ContentKey changed counts as an invalidation: the stale image's
// private chunks are released.
func (s *Store) Put(name string, snap *vmm.Snapshot) error {
	chunks := manifestChunks(snap)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.budget > 0 && uniqueBytes(chunks) > s.budget {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, uniqueBytes(chunks), s.budget)
	}
	snap.Hold() // before dropping the entry it replaces: it may be this image
	if old, ok := s.entries[name]; ok {
		if old.snap.ContentKey != "" && old.snap.ContentKey != snap.ContentKey {
			s.invalCnt.Inc()
		}
		s.removeLocked(name)
	}
	// Admit the incoming chunks first: eviction below then cannot free
	// a chunk the new image shares with a victim.
	for _, c := range chunks {
		s.refChunkLocked(c)
	}
	if err := s.evictToFitLocked(); err != nil {
		for _, c := range chunks {
			s.unrefChunkLocked(c.ID)
		}
		s.usedGauge.Set(int64(s.used))
		snap.Release()
		return err
	}
	s.seq++
	s.entries[name] = &entry{snap: snap, chunks: chunks, size: snap.TotalBytes(), lastUsed: s.seq}
	if snap.BaseKey != "" {
		s.baseDeps[snap.BaseKey]++
	}
	s.usedGauge.Set(int64(s.used))
	return nil
}

func (s *Store) refChunkLocked(c chunk.Chunk) {
	if pc, ok := s.pool[c.ID]; ok {
		pc.refs++
		s.chunksDeduped.Inc()
		return
	}
	s.pool[c.ID] = &poolChunk{bytes: c.Bytes, refs: 1}
	s.used += c.Bytes
	s.chunksStored.Inc()
}

func (s *Store) unrefChunkLocked(id uint64) {
	pc, ok := s.pool[id]
	if !ok {
		return
	}
	pc.refs--
	if pc.refs == 0 {
		s.used -= pc.bytes
		delete(s.pool, id)
	}
}

// removeLocked drops an entry, its chunk references and its image hold.
func (s *Store) removeLocked(name string) {
	e, ok := s.entries[name]
	if !ok {
		return
	}
	for _, c := range e.chunks {
		s.unrefChunkLocked(c.ID)
	}
	if e.snap.BaseKey != "" {
		if s.baseDeps[e.snap.BaseKey]--; s.baseDeps[e.snap.BaseKey] == 0 {
			delete(s.baseDeps, e.snap.BaseKey)
		}
	}
	delete(s.entries, name)
	e.snap.Release()
}

// evictToFitLocked frees space until the pool fits the budget, evicting
// least-recently-used entries. Pinned entries and base images with
// resident dependent deltas are skipped; if only those remain the store
// is wedged and ErrAllPinned surfaces.
func (s *Store) evictToFitLocked() error {
	if s.budget == 0 {
		return nil
	}
	for s.used > s.budget {
		victim := ""
		var oldest uint64
		for name, e := range s.entries {
			if e.pins > 0 || s.baseDeps[name] > 0 {
				continue
			}
			if victim == "" || e.lastUsed < oldest {
				victim = name
				oldest = e.lastUsed
			}
		}
		if victim == "" {
			return ErrAllPinned
		}
		s.removeLocked(victim)
		s.evictions++
		s.evictCnt.Inc()
		s.usedGauge.Set(int64(s.used))
	}
	return nil
}

// Get returns the snapshot for a function, marking it recently used.
func (s *Store) Get(name string) (*vmm.Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[name]
	if !ok {
		s.misses.Inc()
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	s.hits.Inc()
	s.seq++
	e.lastUsed = s.seq
	return e.snap, nil
}

// Pin prevents eviction of a function's snapshot until Unpin; pins
// nest.
func (s *Store) Pin(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	e.pins++
	return nil
}

// Unpin releases one pin.
func (s *Store) Unpin(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[name]; ok && e.pins > 0 {
		e.pins--
	}
}

// Remove deletes a function's snapshot, releasing its chunk references.
func (s *Store) Remove(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.removeLocked(name)
	s.usedGauge.Set(int64(s.used))
}

// Has reports whether a snapshot is resident.
func (s *Store) Has(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[name]
	return ok
}

// MissingChunks filters a chunk list down to the chunks not resident in
// the pool — what a remote fetch actually has to move. A nil store
// (no local pool) misses everything.
func (s *Store) MissingChunks(chunks []chunk.Chunk) []chunk.Chunk {
	if s == nil {
		return chunks
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []chunk.Chunk
	for _, c := range chunks {
		if _, ok := s.pool[c.ID]; !ok {
			out = append(out, c)
		}
	}
	return out
}

// UsedBytes returns current disk usage: the unique-chunk footprint of
// the pool, which is less than the sum of resident image sizes whenever
// images share content.
func (s *Store) UsedBytes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// LogicalBytes returns the sum of resident image sizes — what the same
// images would occupy in a flat (non-deduplicating) store. The ratio
// LogicalBytes/UsedBytes is the dedup factor.
func (s *Store) LogicalBytes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total uint64
	for _, e := range s.entries {
		total += e.size
	}
	return total
}

// Evictions returns the number of LRU evictions performed.
func (s *Store) Evictions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictions
}

// Names returns resident snapshot names in lexical order.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.entries))
	for name := range s.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
