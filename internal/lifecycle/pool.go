// Package lifecycle is the warm pool the baseline platforms share: one
// generic pool of idle guests with a keep-alive TTL on the virtual
// workload timeline and atomic acquire/release. Fireworks keeps no
// pool: every start is a snapshot resume (§3.4).
//
// Before this package, containers, firecracker, and isolate each kept a
// private `warm map[string][]*guest` with hand-rolled acquire/release
// and expiry. Tan et al. (EuroSys'21) show keep-alive policy dominates
// effective cold-start rates, which argues for one first-class pool
// rather than three divergent copies.
package lifecycle

import (
	"sync"
	"time"

	"repro/internal/metrics"
)

// PoolConfig sizes a Pool.
type PoolConfig[G any] struct {
	// TTL bounds how long an idle guest stays pooled on the workload
	// timeline (the `now`/`at` arguments of Acquire, Release, and
	// ExpireIdle). Zero keeps guests forever — the right model for
	// untimed measurements.
	TTL time.Duration
	// OnEvict tears down a guest the pool decided to drop (expired).
	// It is called without the pool lock held and must not be nil if
	// guests own external resources.
	OnEvict func(g G)
}

// Pool is a concurrency-safe warm pool of idle guests keyed by function
// name. Selection and removal happen atomically under one lock —
// mirroring the cluster placer's reserve-under-lock pattern — so two
// concurrent Acquires can never hand out the same guest, and a
// concurrent Release is never lost.
type Pool[G any] struct {
	cfg PoolConfig[G]

	mu   sync.Mutex
	idle map[string][]poolEntry[G]

	// Observability (nil-safe; see Instrument).
	size    *metrics.Gauge
	hits    *metrics.Counter
	misses  *metrics.Counter
	expired *metrics.Counter
}

type poolEntry[G any] struct {
	guest G
	// releasedAt is the workload-timeline position when the guest went
	// idle (keep-alive bookkeeping).
	releasedAt time.Duration
}

// NewPool returns an empty pool.
func NewPool[G any](cfg PoolConfig[G]) *Pool[G] {
	return &Pool[G]{cfg: cfg, idle: make(map[string][]poolEntry[G])}
}

// Instrument attaches the pool to a metrics registry, labeling every
// instrument with the owning platform: pool occupancy, acquire
// hits/misses (hit rate = hits / (hits+misses)) and keep-alive
// expiries.
func (p *Pool[G]) Instrument(reg *metrics.Registry, platformName string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.size = reg.Gauge(metrics.Name("lifecycle_pool_size", "platform", platformName))
	p.hits = reg.Counter(metrics.Name("lifecycle_pool_hits_total", "platform", platformName))
	p.misses = reg.Counter(metrics.Name("lifecycle_pool_misses_total", "platform", platformName))
	p.expired = reg.Counter(metrics.Name("lifecycle_pool_expired_total", "platform", platformName))
}

// expiredLocked reports whether an entry's keep-alive lapsed before
// timeline position now; caller holds the lock.
func (p *Pool[G]) expiredLocked(e poolEntry[G], now time.Duration) bool {
	return p.cfg.TTL > 0 && now > e.releasedAt+p.cfg.TTL
}

// Acquire pops the most recently released guest for key that is still
// inside its keep-alive at timeline position now. Guests whose TTL
// lapsed while pooled are evicted instead of reused (their OnEvict runs
// outside the lock). The second result reports whether a guest was
// found.
func (p *Pool[G]) Acquire(key string, now time.Duration) (G, bool) {
	var victims []G
	var guest G
	found := false

	p.mu.Lock()
	pool := p.idle[key]
	for len(pool) > 0 {
		candidate := pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		if p.expiredLocked(candidate, now) {
			victims = append(victims, candidate.guest)
			p.expired.Inc()
			p.size.Add(-1)
			continue
		}
		guest = candidate.guest
		found = true
		p.size.Add(-1)
		break
	}
	p.idle[key] = pool
	if found {
		p.hits.Inc()
	} else {
		p.misses.Inc()
	}
	p.mu.Unlock()

	p.evict(victims)
	return guest, found
}

// Release returns an idle guest to the pool at timeline position now.
func (p *Pool[G]) Release(key string, g G, now time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.idle[key] = append(p.idle[key], poolEntry[G]{guest: g, releasedAt: now})
	p.size.Add(1)
}

// ExpireIdle evicts every pooled guest idle past the keep-alive at
// timeline position now and returns how many were reaped. (Acquire
// also expires lazily; this is the background reaper that reclaims
// resources for functions that are never called again.)
func (p *Pool[G]) ExpireIdle(now time.Duration) int {
	var victims []G
	p.mu.Lock()
	if p.cfg.TTL > 0 {
		for key, pool := range p.idle {
			kept := pool[:0]
			for _, e := range pool {
				if p.expiredLocked(e, now) {
					victims = append(victims, e.guest)
					p.expired.Inc()
					p.size.Add(-1)
				} else {
					kept = append(kept, e)
				}
			}
			p.idle[key] = kept
		}
	}
	p.mu.Unlock()

	p.evict(victims)
	return len(victims)
}

// Guests returns a copy of the idle guests pooled for key, oldest
// first — for memory reporting, not for taking ownership.
func (p *Pool[G]) Guests(key string) []G {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]G, 0, len(p.idle[key]))
	for _, e := range p.idle[key] {
		out = append(out, e.guest)
	}
	return out
}

// DrainKey removes and returns every idle guest pooled for key without
// running OnEvict: the caller takes ownership of teardown (Remove paths
// need error-returning shutdown the OnEvict signature cannot express).
func (p *Pool[G]) DrainKey(key string) []G {
	p.mu.Lock()
	pool := p.idle[key]
	delete(p.idle, key)
	out := make([]G, 0, len(pool))
	for _, e := range pool {
		out = append(out, e.guest)
		p.size.Add(-1)
	}
	p.mu.Unlock()
	return out
}

// evict runs OnEvict for each victim outside the pool lock (teardown
// may be slow or re-enter the pool's owner).
func (p *Pool[G]) evict(victims []G) {
	if p.cfg.OnEvict == nil {
		return
	}
	for _, g := range victims {
		p.cfg.OnEvict(g)
	}
}
