// Package vclock provides a deterministic virtual clock and a seeded
// pseudo-random source for the Fireworks simulation.
//
// Every latency-bearing operation in the simulated stack (VM boot, JIT
// compilation, bytecode execution, disk and network I/O, queue fetches)
// charges virtual time to a Clock instead of consuming wall-clock time.
// This makes every experiment fully deterministic and independent of the
// host the simulation runs on: latencies are a pure function of the
// workload and the calibrated cost model.
//
// A charge names its cost and lands in the clock's phase ledger, so the
// paper's split of a request into start-up, exec and "others" is a view
// over the same charges that moved the clock, not a second book. The
// ledger's one observer books the same charge to the invocation's trace
// and counts it in the instruments that repeat it (see observe).
package vclock

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/events"
	"repro/internal/metrics"
)

// Phase is the slice of an invocation's latency a charge belongs to.
type Phase uint8

// The paper's three phases (Figures 6, 7 and 9), plus Unphased for time
// charged outside every phase scope, such as a retry's backoff between
// pipeline stages: it moves the clock but is in no phase total.
const (
	Unphased Phase = iota
	Startup        // sandbox/VM/runtime initialization, snapshot load
	Exec           // user function execution (incl. in-run JIT)
	Others         // network, disk I/O, queueing, parameter fetch
)

var phaseNames = [...]string{"unphased", "start-up", "exec", "others"}

// String returns the phase's name as the paper's figures label it.
func (p Phase) String() string { return phaseNames[p] }

// Entry is one (phase, label) total of a clock's ledger.
type Entry struct {
	Phase Phase
	Label string
	Total time.Duration
}

// inlineEntries covers the distinct (phase, label) pairs of one
// invocation, so charging allocates nothing on the common paths.
const inlineEntries = 12

// Clock is a monotonically advancing virtual clock. The zero value is a
// valid clock positioned at virtual time zero, outside every phase.
//
// A Clock is safe for concurrent use. In practice each simulated
// invocation owns its own Clock, but shared components (e.g. a host-wide
// timeline) may be advanced from several goroutines.
type Clock struct {
	mu     sync.Mutex
	now    time.Duration
	phase  Phase
	totals [4]time.Duration // per phase, Unphased included
	ledger []Entry          // in first-charge order, backed by inline until it outgrows it
	inline [inlineEntries]Entry
	reg    atomic.Pointer[metrics.Registry] // where charges are counted; see Observe
	scope  atomic.Pointer[events.Scope]     // the invocation's trace; see Observe
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

// Since reports the virtual time elapsed since the given mark.
func (c *Clock) Since(mark time.Duration) time.Duration {
	return c.Now() - mark
}

// Advance moves the clock forward by d and returns the new current time,
// booking nothing. It is a timeline step for the gateway's and the
// command-line tools' request timelines, which are not invocations;
// simulated work charges an invocation's clock with Charge instead.
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

// Observe makes reg the registry the clock's charges are counted in
// and sc its invocation's trace, which they are booked to (either may
// be nil). A bare clock is observed by neither.
func (c *Clock) Observe(reg *metrics.Registry, sc *events.Scope) {
	c.reg.Store(reg)
	c.scope.Store(sc)
}

// Scope returns the trace of the clock's invocation (nil for none).
func (c *Clock) Scope() *events.Scope { return c.scope.Load() }

// Charge moves the clock forward by d and books it under label in the
// clock's current phase (see SetPhase).
func (c *Clock) Charge(label string, d time.Duration) {
	c.mu.Lock()
	c.book(c.phase, label, d)
}

// ChargeIn is Charge into an explicit phase, whatever scope is open.
func (c *Clock) ChargeIn(p Phase, label string, d time.Duration) {
	c.mu.Lock()
	c.book(p, label, d)
}

// WaitUntil moves the clock forward to time t, booking the wait as an
// unphased charge under label. If t is not later than the current time
// nothing moves: a clock never rewinds.
func (c *Clock) WaitUntil(label string, t time.Duration) {
	c.mu.Lock()
	if t <= c.now {
		c.mu.Unlock()
		return
	}
	c.book(Unphased, label, t-c.now)
}

// book books a charge into the ledger, whose lock the caller holds,
// releases the lock and hands the charge to the ledger's observer.
func (c *Clock) book(p Phase, label string, d time.Duration) {
	if d < 0 {
		c.mu.Unlock()
		panic(fmt.Sprintf("vclock: negative charge %v for %s/%s", d, p, label))
	}
	c.now += d
	c.totals[p] += d
	i := 0
	for i < len(c.ledger) && (c.ledger[i].Phase != p || c.ledger[i].Label != label) {
		i++
	}
	if i == len(c.ledger) {
		if c.ledger == nil {
			c.ledger = c.inline[:0]
		}
		c.ledger = append(c.ledger, Entry{Phase: p, Label: label})
	}
	c.ledger[i].Total += d
	now := c.now
	c.mu.Unlock()
	observe(c.reg.Load(), c.scope.Load(), label, d, now)
}

// instruments is the one binding of charge labels to the instruments
// on reg that repeat every charge of the label: its counter and, where
// it has one, its duration histogram. A nil reg or an unbound label
// yields nil instruments, which record nothing.
func instruments(reg *metrics.Registry, label string) (*metrics.Counter, *metrics.Histogram) {
	switch label {
	case "kernel-boot":
		return reg.Counter("vmm_kernel_boots_total"), reg.Histogram("vmm_kernel_boot_duration")
	case "vm-restore":
		return reg.Counter("vmm_snapshot_restores_total"), reg.Histogram("vmm_snapshot_restore_duration")
	case "snapshot-capture":
		return reg.Counter("vmm_snapshots_taken_total"), reg.Histogram("vmm_snapshot_capture_duration")
	case "vm-warm-resume":
		return reg.Counter("vmm_warm_resumes_total"), nil
	case "retry-backoff":
		return reg.Counter("retries_total"), reg.Histogram("retry_backoff_seconds")
	}
	return nil, nil
}

// Register creates on reg the instruments of the given charge labels,
// so they are in its exports before the first such charge.
func Register(reg *metrics.Registry, labels ...string) {
	for _, label := range labels {
		instruments(reg, label)
	}
}

// observe is the ledger's one observer, run after the clock's lock is
// released: it books a charge of d to sc's innermost open span and
// records it into its label's instruments on reg, with sc's trace at
// now, the clock's time after the charge, as the exemplar.
func observe(reg *metrics.Registry, sc *events.Scope, label string, d, now time.Duration) {
	sc.Book(d)
	total, duration := instruments(reg, label)
	total.Inc()
	duration.ObserveDurationExemplar(d, uint64(sc.TraceID()), now)
}

// SetPhase makes p the phase that Charge books into and returns the
// phase it replaces. A caller opens a phase scope and restores the
// enclosing one on every exit:
//
//	defer clock.SetPhase(clock.SetPhase(vclock.Startup))
//
// Code that sets no phase charges into its caller's.
func (c *Clock) SetPhase(p Phase) Phase {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.phase
	c.phase = p
	return prev
}

// phaseTotal returns the time booked into one phase so far.
func (c *Clock) phaseTotal(p Phase) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totals[p]
}

// Startup, Exec and Others are the paper's three phase totals.
func (c *Clock) Startup() time.Duration { return c.phaseTotal(Startup) }
func (c *Clock) Exec() time.Duration    { return c.phaseTotal(Exec) }
func (c *Clock) Others() time.Duration  { return c.phaseTotal(Others) }

// Total returns the end-to-end latency the paper reports: the sum of
// the three phases. Unphased time moves the clock but is not in it.
func (c *Clock) Total() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totals[Startup] + c.totals[Exec] + c.totals[Others]
}

// Ledger returns a copy of the per-(phase, label) totals in the order
// each pair was first charged.
func (c *Clock) Ledger() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.ledger)
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
