package lifecycle

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

type fakeGuest struct {
	id int
	// inUse flags the guest as held by an acquirer; the concurrency
	// test uses it to prove no guest is ever handed out twice.
	inUse   atomic.Bool
	evicted atomic.Bool
}

func TestPoolAcquireReleaseLIFO(t *testing.T) {
	p := NewPool(PoolConfig[*fakeGuest]{})
	if _, ok := p.Acquire("fn", 0); ok {
		t.Fatal("empty pool produced a guest")
	}
	a, b := &fakeGuest{id: 1}, &fakeGuest{id: 2}
	p.Release("fn", a, 0)
	p.Release("fn", b, 0)
	if got := len(p.Guests("fn")); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
	g, ok := p.Acquire("fn", 0)
	if !ok || g.id != 2 {
		t.Fatalf("Acquire = %v, %v; want guest 2 (most recently released)", g, ok)
	}
	g, ok = p.Acquire("fn", 0)
	if !ok || g.id != 1 {
		t.Fatalf("Acquire = %v, %v; want guest 1", g, ok)
	}
	if _, ok := p.Acquire("fn", 0); ok {
		t.Fatal("drained pool produced a guest")
	}
}

func TestPoolKeysAreIndependent(t *testing.T) {
	p := NewPool(PoolConfig[*fakeGuest]{})
	p.Release("a", &fakeGuest{id: 1}, 0)
	if _, ok := p.Acquire("b", 0); ok {
		t.Fatal("guest leaked across keys")
	}
	if _, ok := p.Acquire("a", 0); !ok {
		t.Fatal("guest lost from its own key")
	}
}

func TestPoolTTLExpiryOnAcquire(t *testing.T) {
	p := NewPool(PoolConfig[*fakeGuest]{
		TTL:     time.Minute,
		OnEvict: func(g *fakeGuest) { g.evicted.Store(true) },
	})
	stale := &fakeGuest{id: 1}
	fresh := &fakeGuest{id: 2}
	p.Release("fn", stale, 0)
	p.Release("fn", fresh, 90*time.Second)

	// At t=100s the guest released at t=0 lapsed (TTL 60s) but the one
	// released at t=90s is still live.
	g, ok := p.Acquire("fn", 100*time.Second)
	if !ok || g.id != 2 {
		t.Fatalf("Acquire = %v, %v; want the fresh guest", g, ok)
	}
	if _, ok := p.Acquire("fn", 100*time.Second); ok {
		t.Fatal("stale guest was reused")
	}
	if !stale.evicted.Load() {
		t.Fatal("stale guest never evicted")
	}
	if fresh.evicted.Load() {
		t.Fatal("fresh guest wrongly evicted")
	}
}

func TestPoolExpireIdleReapsInBackground(t *testing.T) {
	p := NewPool(PoolConfig[*fakeGuest]{
		TTL:     time.Minute,
		OnEvict: func(g *fakeGuest) { g.evicted.Store(true) },
	})
	guests := []*fakeGuest{{id: 1}, {id: 2}, {id: 3}}
	p.Release("a", guests[0], 0)
	p.Release("a", guests[1], 30*time.Second)
	p.Release("b", guests[2], 0)

	if n := p.ExpireIdle(45 * time.Second); n != 0 {
		t.Fatalf("ExpireIdle(45s) = %d, want 0", n)
	}
	if n := p.ExpireIdle(70 * time.Second); n != 2 {
		t.Fatalf("ExpireIdle(70s) = %d, want 2 (both released at t=0)", n)
	}
	if !guests[0].evicted.Load() || !guests[2].evicted.Load() {
		t.Fatal("expired guests not evicted")
	}
	if len(p.Guests("a")) != 1 || len(p.Guests("b")) != 0 {
		t.Fatalf("Guests(a)=%d Guests(b)=%d after reap", len(p.Guests("a")), len(p.Guests("b")))
	}
}

func TestPoolZeroTTLNeverExpires(t *testing.T) {
	p := NewPool(PoolConfig[*fakeGuest]{})
	p.Release("fn", &fakeGuest{id: 1}, 0)
	if n := p.ExpireIdle(time.Hour); n != 0 {
		t.Fatalf("ExpireIdle = %d with TTL 0", n)
	}
	if _, ok := p.Acquire("fn", time.Hour); !ok {
		t.Fatal("guest expired despite TTL 0")
	}
}

func TestPoolConcurrentAcquireNeverDoubleIssues(t *testing.T) {
	p := NewPool(PoolConfig[*fakeGuest]{})
	const guests, workers, rounds = 4, 16, 200
	for i := 0; i < guests; i++ {
		p.Release("fn", &fakeGuest{id: i}, 0)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				g, ok := p.Acquire("fn", 0)
				if !ok {
					continue
				}
				if g.inUse.Swap(true) {
					t.Error("guest handed to two holders at once")
					return
				}
				g.inUse.Store(false)
				p.Release("fn", g, 0)
			}
		}()
	}
	wg.Wait()
	if got := len(p.Guests("fn")); got != guests {
		t.Fatalf("Count = %d, want %d after all holders released", got, guests)
	}
}

func TestPoolDrainKeySkipsOnEvict(t *testing.T) {
	var evicted atomic.Int64
	p := NewPool(PoolConfig[*fakeGuest]{OnEvict: func(g *fakeGuest) { evicted.Add(1) }})
	p.Release("fn", &fakeGuest{id: 1}, 0)
	p.Release("fn", &fakeGuest{id: 2}, 0)
	drained := p.DrainKey("fn")
	if len(drained) != 2 {
		t.Fatalf("DrainKey returned %d guests, want 2", len(drained))
	}
	if evicted.Load() != 0 {
		t.Fatal("DrainKey ran OnEvict; caller owns teardown")
	}
	if len(p.Guests("fn")) != 0 {
		t.Fatal("guests survived DrainKey")
	}
}

func TestPoolGuestsReturnsCopy(t *testing.T) {
	p := NewPool(PoolConfig[*fakeGuest]{})
	p.Release("fn", &fakeGuest{id: 1}, 0)
	gs := p.Guests("fn")
	if len(gs) != 1 || gs[0].id != 1 {
		t.Fatalf("Guests = %v", gs)
	}
	if len(p.Guests("fn")) != 1 {
		t.Fatal("Guests consumed the pool")
	}
}

func TestPoolInstrumentCountsHitsMissesExpiriesRejections(t *testing.T) {
	reg := metrics.NewRegistry()
	p := NewPool(PoolConfig[*fakeGuest]{TTL: time.Minute})
	p.Instrument(reg, "testplat")

	p.Acquire("fn", 0)                    // miss
	p.Release("fn", &fakeGuest{id: 1}, 0) // size 1
	p.Release("fn", &fakeGuest{id: 2}, 0) // size 2: the pool has no bound
	p.Acquire("fn", 0)                    // hit, size 1
	p.Release("fn", &fakeGuest{id: 3}, 0) // size 2
	p.ExpireIdle(2 * time.Minute)         // 2 expired, size 0
	p.Release("fn", &fakeGuest{id: 4}, 3*time.Minute)

	get := func(name string) int64 {
		return reg.Counter(metrics.Name(name, "platform", "testplat")).Value()
	}
	if got := get("lifecycle_pool_hits_total"); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if got := get("lifecycle_pool_misses_total"); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := get("lifecycle_pool_expired_total"); got != 2 {
		t.Errorf("expired = %d, want 2", got)
	}
	if got := get("lifecycle_pool_rejected_total"); got != 0 {
		t.Errorf("rejected = %d, want 0", got)
	}
	size := reg.Gauge(metrics.Name("lifecycle_pool_size", "platform", "testplat"))
	if got := size.Value(); got != 1 {
		t.Errorf("size gauge = %d, want 1", got)
	}
}
