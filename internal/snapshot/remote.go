package snapshot

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/chunk"
	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/vclock"
	"repro/internal/vmm"
)

// Remote is an unbounded remote object store for snapshot images — the
// §6 mitigation the paper points to ("previous works using a
// snapshot-based approach leverage remote storage"): the host keeps a
// bounded local cache (Store) and falls back to fetching the image over
// the network instead of re-running the whole install phase.
//
// Like the local store, the remote is content-addressed: objects are
// manifests over a shared chunk pool. An upload moves only chunks the
// remote pool lacks (re-uploading existing content is a metadata-only
// write), and a fetch against a local store moves only chunks missing
// from the local pool — so pulling a post-JIT image whose base-runtime
// chunks are already resident pays for the function's few-MiB delta,
// not the whole ~240 MiB image.
//
// Transfer cost models a 10 Gbps storage network: a fixed request
// latency plus a per-byte term over the bytes actually moved, so a full
// ~240 MiB image costs ~200 ms — two orders of magnitude cheaper than a
// reinstall (~5 s) — and a delta fetch is an order cheaper again.
type Remote struct {
	mu      sync.Mutex
	objects map[string]*vmm.Snapshot
	pool    map[uint64]uint64 // chunk ID -> bytes resident remotely
	fetches int

	// Observability (nil-safe; see Instrument).
	fetchCtr     *metrics.Counter
	uploadCtr    *metrics.Counter
	chunksFetch  *metrics.Counter
	xferBytes    *metrics.Histogram
	deltaBytes   *metrics.Histogram
	objectsGauge *metrics.Gauge

	// injector, when attached, injects failures at the
	// snapshot.remote.fetch site (nil-safe).
	injector *faults.Plane
}

// transferBuckets spans the image sizes the platform moves: a few MiB
// of runtime state up to multi-hundred-MiB post-JIT images.
func transferBuckets() []float64 {
	return []float64{
		1 << 20,   // 1 MiB
		16 << 20,  // 16 MiB
		64 << 20,  // 64 MiB
		128 << 20, // 128 MiB
		256 << 20, // 256 MiB
		512 << 20, // 512 MiB
		1 << 30,   // 1 GiB
	}
}

// Instrument attaches the remote store to a metrics registry:
// fetch/upload counters, per-chunk fetch traffic, a transfer-size
// histogram over the bytes actually moved each direction, the per-fetch
// delta size, and the resident object count.
func (r *Remote) Instrument(reg *metrics.Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fetchCtr = reg.Counter("snapshot_remote_fetches_total")
	r.uploadCtr = reg.Counter("snapshot_remote_uploads_total")
	r.chunksFetch = reg.Counter("snapshot_chunks_fetched_total")
	r.xferBytes = reg.HistogramWith("snapshot_remote_transfer_bytes", "bytes", transferBuckets())
	r.deltaBytes = reg.HistogramWith("snapshot_delta_bytes", "bytes", transferBuckets())
	r.objectsGauge = reg.Gauge("snapshot_remote_objects")
}

// AttachFaults arms the remote store's fault-injection site.
func (r *Remote) AttachFaults(p *faults.Plane) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.injector = p
}

// Remote transfer cost constants (10 Gbps effective ≈ 1.25 GB/s).
const (
	CostRemoteFetchBase = 5 * time.Millisecond
	CostRemotePerMiB    = 840 * time.Microsecond
	// Uploads happen on the install path (already seconds long); the
	// same transfer rate applies.
	CostRemoteUploadBase = 5 * time.Millisecond
)

// NewRemote returns an empty remote store.
func NewRemote() *Remote {
	return &Remote{
		objects: make(map[string]*vmm.Snapshot),
		pool:    make(map[uint64]uint64),
	}
}

// Upload stores an image remotely, charging transfer time to clock and
// recording a "remote-upload" event into the clock's trace. Only chunks
// the remote pool lacks are transferred; re-uploading an image whose
// content is already resident short-circuits to a metadata write (base
// cost only).
func (r *Remote) Upload(name string, snap *vmm.Snapshot, clock *vclock.Clock) {
	sc := clock.Scope()
	chunks := manifestChunks(snap)
	r.mu.Lock()
	var missing []chunk.Chunk
	for _, c := range chunks {
		if _, ok := r.pool[c.ID]; !ok {
			missing = append(missing, c)
		}
	}
	moved := chunk.BytesOf(missing)
	r.mu.Unlock()

	cost := CostRemoteUploadBase
	if moved > 0 {
		cost += transferCost(moved)
	}
	clock.Charge("remote-upload", cost)

	r.mu.Lock()
	for _, c := range missing {
		r.pool[c.ID] = c.Bytes
	}
	snap.Hold()
	if old, ok := r.objects[name]; ok {
		old.Release()
	}
	r.objects[name] = snap
	r.uploadCtr.Inc()
	r.xferBytes.ObserveExemplar(float64(moved), uint64(sc.TraceID()), clock.Now())
	r.objectsGauge.Set(int64(len(r.objects)))
	r.mu.Unlock()
	sc.Instant("snapshot", "remote-upload", clock.Now(),
		events.A("image", name),
		events.A("chunks", fmt.Sprint(len(missing))),
		events.A("bytes", fmt.Sprint(moved)))
}

// Fetch retrieves an image, transferring only the chunks missing from
// the local store's pool (nil local means everything is missing), and
// charges the transfer to clock. The transfer emits a "snapshot" event
// carrying the delta size into the clock's trace, and any injected
// fault emits its own at the remote-fetch site.
func (r *Remote) Fetch(name string, local *Store, clock *vclock.Clock) (*vmm.Snapshot, error) {
	sc := clock.Scope()
	r.mu.Lock()
	injector := r.injector
	r.mu.Unlock()
	if err := injector.InjectTraced(faults.SiteRemoteFetch, clock, sc, 0); err != nil {
		return nil, fmt.Errorf("snapshot: remote fetch of %q: %w", name, err)
	}
	r.mu.Lock()
	snap, ok := r.objects[name]
	if ok {
		r.fetches++
		r.fetchCtr.Inc()
	}
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q (not in remote storage)", ErrNotFound, name)
	}
	missing := local.MissingChunks(manifestChunks(snap))
	moved := chunk.BytesOf(missing)
	cost := CostRemoteFetchBase
	if moved > 0 {
		cost += transferCost(moved)
	}
	clock.Charge("remote-fetch", cost)
	r.mu.Lock()
	r.chunksFetch.Add(int64(len(missing)))
	r.xferBytes.ObserveExemplar(float64(moved), uint64(sc.TraceID()), clock.Now())
	r.deltaBytes.ObserveExemplar(float64(moved), uint64(sc.TraceID()), clock.Now())
	r.mu.Unlock()
	sc.Instant("snapshot", "remote-fetch", clock.Now(),
		events.A("image", name),
		events.A("chunks", fmt.Sprint(len(missing))),
		events.A("bytes", fmt.Sprint(moved)))
	return snap, nil
}

// Delete removes an image's metadata, and its hold on the image, from
// remote storage. Its chunks stay in the content pool (other manifests
// may reference them; the pool is append-only, like a real
// content-addressed blob store between garbage-collection passes).
func (r *Remote) Delete(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if snap, ok := r.objects[name]; ok {
		snap.Release()
	}
	delete(r.objects, name)
	r.objectsGauge.Set(int64(len(r.objects)))
}

// Fetches reports how many images were fetched (for the ablations).
func (r *Remote) Fetches() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fetches
}

func transferCost(bytes uint64) time.Duration {
	mib := (bytes + (1 << 20) - 1) >> 20
	return time.Duration(mib) * CostRemotePerMiB
}
