package faults

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/vclock"
)

// Errors classifying why a Retrier gave up (both match via errors.Is
// through the returned wrapper).
var (
	// ErrAttemptTimeout marks an attempt that exceeded the per-attempt
	// deadline — including "successful" attempts whose result arrived
	// too late to use (the caller's discard hook disposes of it).
	ErrAttemptTimeout = errors.New("faults: attempt exceeded deadline")
	// ErrRetryBudget marks a retry loop cut short because the next
	// backoff would overrun the total virtual-time budget.
	ErrRetryBudget = errors.New("faults: retry budget exhausted")
)

// RetryPolicy tunes a Retrier. The zero value disables retries
// entirely (single attempt, no deadline, no backoff) — resilience is
// opt-in, preserving the paper's fail-fast baseline.
type RetryPolicy struct {
	// MaxAttempts caps total attempts; <= 1 means a single attempt.
	MaxAttempts int
	// BaseBackoff is the wait before the first retry; each further
	// retry multiplies it by Multiplier, capped at MaxBackoff. All
	// backoff is charged to the invocation's virtual clock.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	Multiplier  float64
	// Jitter perturbs each backoff by at most this fraction, drawn from
	// the Retrier's own seeded PRNG — decorrelated retries that are
	// still bit-reproducible run to run.
	Jitter float64
	// AttemptTimeout is the per-attempt deadline: an attempt whose
	// virtual-time cost exceeds it counts as a failure even if the
	// operation returned success (the discard hook cleans up).
	// Zero disables deadlines.
	AttemptTimeout time.Duration
	// Budget caps the total virtual time one Do call may spend across
	// attempts and backoff; zero disables the cap.
	Budget time.Duration
	// Seed seeds the jitter PRNG (a fixed default when zero), kept
	// separate from the fault plane's PRNG so retry jitter never
	// perturbs the fault schedule.
	Seed uint64
	// Permanent, when non-nil, marks errors that retrying cannot fix
	// (bad request, image permanently gone, store wedged by pins);
	// Do returns them immediately.
	Permanent func(error) bool
}

// DefaultRetryPolicy is the policy the seeded storm test and
// `fwsim -faults` enable: four attempts, 2 ms..50 ms exponential
// backoff with 25% deterministic jitter, a 1 s per-attempt deadline
// (above any healthy operation, below a latency spike), and a 4 s
// total budget.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:    4,
		BaseBackoff:    2 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		Multiplier:     2,
		Jitter:         0.25,
		AttemptTimeout: time.Second,
		Budget:         4 * time.Second,
	}
}

// Retrier executes operations under a RetryPolicy, charging every
// backoff to the operation's virtual clock. A nil Retrier (or one with
// a single-attempt policy) runs the operation once, unguarded.
type Retrier struct {
	policy RetryPolicy
	rng    *vclock.Rand

	retries   *metrics.Counter
	backoffH  *metrics.Histogram
	exhausted *metrics.Counter
	timeouts  *metrics.Counter
}

// NewRetrier builds a Retrier, registering retries_total,
// retry_backoff_seconds, retry_exhausted_total, and
// retry_attempt_timeouts_total on reg (nil reg = uninstrumented).
func NewRetrier(policy RetryPolicy, reg *metrics.Registry) *Retrier {
	if policy.Multiplier <= 0 {
		policy.Multiplier = 2
	}
	seed := policy.Seed
	if seed == 0 {
		seed = 0x5ee0f0a11ed
	}
	return &Retrier{
		policy:    policy,
		rng:       vclock.NewRand(seed),
		retries:   reg.Counter("retries_total"),
		backoffH:  reg.Histogram("retry_backoff_seconds"),
		exhausted: reg.Counter("retry_exhausted_total"),
		timeouts:  reg.Counter("retry_attempt_timeouts_total"),
	}
}

// Enabled reports whether the Retrier will ever retry.
func (r *Retrier) Enabled() bool {
	return r != nil && r.policy.MaxAttempts > 1
}

// DoTraced runs op until it succeeds within the per-attempt deadline,
// fails permanently, or the policy's attempts / budget run out. Each
// retry (and the final give-up) emits a "retry" event named label into
// sc (nil records nothing).
func (r *Retrier) DoTraced(clock *vclock.Clock, sc *events.Scope, label string, op func() error) error {
	return r.DoWithDiscardTraced(clock, sc, label, op, nil)
}

// DoWithDiscardTraced is DoTraced for operations whose success leaves
// a resource behind: when a successful attempt exceeds the per-attempt
// deadline its result is unusable, and discard disposes of it before
// the retry (stop the slow-restored VM, drop the stale image).
func (r *Retrier) DoWithDiscardTraced(clock *vclock.Clock, sc *events.Scope, label string, op func() error, discard func()) error {
	if !r.Enabled() {
		return op()
	}
	start := clock.Now()
	var lastErr error
	for attempt := 1; ; attempt++ {
		mark := clock.Now()
		err := op()
		elapsed := clock.Since(mark)
		timedOut := r.policy.AttemptTimeout > 0 && elapsed > r.policy.AttemptTimeout
		if err == nil && !timedOut {
			return nil
		}
		if err == nil {
			// Success arrived past the deadline: unusable.
			r.timeouts.Inc()
			if discard != nil {
				discard()
			}
			err = fmt.Errorf("%w (%v > %v)", ErrAttemptTimeout, elapsed, r.policy.AttemptTimeout)
		} else if r.policy.Permanent != nil && r.policy.Permanent(err) {
			return err
		}
		lastErr = err
		if attempt >= r.policy.MaxAttempts {
			r.exhausted.Inc()
			sc.Instant("retry", label, clock.Now(),
				events.A("outcome", "exhausted"), events.A("attempts", strconv.Itoa(attempt)))
			return fmt.Errorf("faults: %d attempts failed: %w", attempt, lastErr)
		}
		backoff := r.backoff(attempt)
		if r.policy.Budget > 0 && clock.Since(start)+backoff > r.policy.Budget {
			r.exhausted.Inc()
			sc.Instant("retry", label, clock.Now(),
				events.A("outcome", "budget-exhausted"), events.A("attempts", strconv.Itoa(attempt)))
			return fmt.Errorf("%w after %d attempts: %v", ErrRetryBudget, attempt, lastErr)
		}
		clock.Charge("retry-backoff", backoff)
		r.retries.Inc()
		r.backoffH.ObserveDurationExemplar(backoff, uint64(sc.TraceID()), clock.Now())
		sc.Instant("retry", label, clock.Now(),
			events.A("attempt", strconv.Itoa(attempt+1)), events.A("backoff", backoff.String()))
	}
}

// backoff computes the wait before retry number attempt (1-based),
// exponential with deterministic jitter.
func (r *Retrier) backoff(attempt int) time.Duration {
	d := float64(r.policy.BaseBackoff)
	for i := 1; i < attempt; i++ {
		d *= r.policy.Multiplier
		if r.policy.MaxBackoff > 0 && d > float64(r.policy.MaxBackoff) {
			d = float64(r.policy.MaxBackoff)
			break
		}
	}
	out := time.Duration(d)
	if r.policy.MaxBackoff > 0 && out > r.policy.MaxBackoff {
		out = r.policy.MaxBackoff
	}
	return r.rng.Jitter(out, r.policy.Jitter)
}

// IsTransient reports whether an error chain is worth a failover:
// injected faults, attempt timeouts, and budget exhaustion are
// transient by construction; anything else (bad request, unknown
// function) would fail identically on every node.
func IsTransient(err error) bool {
	return errors.Is(err, ErrInjected) || errors.Is(err, ErrAttemptTimeout) || errors.Is(err, ErrRetryBudget)
}
