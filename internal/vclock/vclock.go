// Package vclock provides a deterministic virtual clock and a seeded
// pseudo-random source for the Fireworks simulation.
//
// Every latency-bearing operation in the simulated stack (VM boot, JIT
// compilation, bytecode execution, disk and network I/O, queue fetches)
// charges virtual time to a Clock instead of consuming wall-clock time.
// This makes every experiment fully deterministic and independent of the
// host the simulation runs on: latencies are a pure function of the
// workload and the calibrated cost model.
package vclock

import (
	"fmt"
	"sync"
	"time"
)

// Clock is a monotonically advancing virtual clock. The zero value is a
// valid clock positioned at virtual time zero.
//
// A Clock is safe for concurrent use. In practice each simulated
// invocation owns its own Clock, but shared components (e.g. a host-wide
// timeline) may be advanced from several goroutines.
type Clock struct {
	mu  sync.Mutex
	now time.Duration
}

// New returns a clock positioned at virtual time zero.
func New() *Clock { return &Clock{} }

// NewAt returns a clock positioned at the given virtual time.
func NewAt(t time.Duration) *Clock { return &Clock{now: t} }

// Now returns the current virtual time as an offset from the epoch.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d and returns the new current time.
// Advancing by a negative duration panics: virtual time never rewinds.
func (c *Clock) Advance(d time.Duration) time.Duration {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative advance %v", d))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
	return c.now
}

// AdvanceTo moves the clock forward to time t. If t is earlier than the
// current time the clock is left unchanged; a clock never rewinds. It
// returns the resulting current time.
func (c *Clock) AdvanceTo(t time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Since reports the virtual time elapsed since the given mark.
func (c *Clock) Since(mark time.Duration) time.Duration {
	return c.Now() - mark
}

// Rand is a small deterministic pseudo-random source (SplitMix64). It is
// used to add bounded jitter to modeled costs so repeated invocations are
// not byte-identical while the experiment as a whole stays reproducible.
type Rand struct {
	mu    sync.Mutex
	state uint64
}

// NewRand returns a deterministic random source seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next value in the SplitMix64 sequence.
func (r *Rand) Uint64() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a deterministic value in [0, n). It panics when n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("vclock: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a deterministic value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Jitter returns d scaled by a deterministic factor in [1-f, 1+f].
// It is used to perturb modeled costs by at most fraction f.
func (r *Rand) Jitter(d time.Duration, f float64) time.Duration {
	if f <= 0 {
		return d
	}
	scale := 1 + f*(2*r.Float64()-1)
	return time.Duration(float64(d) * scale)
}
