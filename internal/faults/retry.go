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
// opt-in, preserving the paper's fail-fast baseline. An enabled policy
// (DefaultRetryPolicy) retries on one fixed schedule: retryAttempts
// attempts, exponential backoff from retryBaseBackoff to
// retryMaxBackoff, each wait jittered by retryJitter.
type RetryPolicy struct {
	// AttemptTimeout is the per-attempt deadline: an attempt whose
	// virtual-time cost exceeds it counts as a failure even if the
	// operation returned success (the discard hook cleans up).
	// Zero disables deadlines.
	AttemptTimeout time.Duration
	// Budget caps the total virtual time one call may spend across
	// attempts and backoff; zero disables the cap.
	Budget time.Duration
	// Permanent, when non-nil, marks errors that retrying cannot fix
	// (bad request, image permanently gone, store wedged by pins);
	// the Retrier returns them immediately.
	Permanent func(error) bool

	// enabled turns the schedule on; only DefaultRetryPolicy sets it.
	enabled bool
}

// The retry schedule of every enabled policy. All backoff is charged to
// the operation's virtual clock, and the jitter is drawn from the
// Retrier's own PRNG, seeded with retrySeed apart from the fault
// plane's so retry jitter never perturbs the fault schedule:
// decorrelated retries that are still bit-reproducible run to run.
const (
	retryAttempts    = 4
	retryBaseBackoff = 2 * time.Millisecond
	retryMaxBackoff  = 50 * time.Millisecond
	retryMultiplier  = 2
	retryJitter      = 0.25
	retrySeed        = 0x5ee0f0a11ed
)

// DefaultRetryPolicy is the policy the seeded storm test and
// `fwsim -faults` enable: the fixed retry schedule, a 1 s per-attempt
// deadline (above any healthy operation, below a latency spike), and a
// 4 s total budget.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{AttemptTimeout: time.Second, Budget: 4 * time.Second, enabled: true}
}

// Retrier executes operations under a RetryPolicy, charging every
// backoff to the operation's virtual clock. A nil Retrier (or one with
// a disabled policy) runs the operation once, unguarded.
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
	return &Retrier{
		policy:    policy,
		rng:       vclock.NewRand(retrySeed),
		retries:   reg.Counter("retries_total"),
		backoffH:  reg.Histogram("retry_backoff_seconds"),
		exhausted: reg.Counter("retry_exhausted_total"),
		timeouts:  reg.Counter("retry_attempt_timeouts_total"),
	}
}

// Enabled reports whether the policy ever retries.
func (p RetryPolicy) Enabled() bool { return p.enabled }

// DoWithDiscardTraced runs op until it succeeds within the per-attempt
// deadline, fails permanently, or the attempts / budget run out. Each
// retry (and the final give-up) emits a "retry" event named label into
// sc (nil records nothing). For operations whose success leaves a
// resource behind, discard (nil for none) disposes of a result that
// arrived past the deadline before the retry (stop the slow-restored
// VM, drop the stale image).
func (r *Retrier) DoWithDiscardTraced(clock *vclock.Clock, sc *events.Scope, label string, op func() error, discard func()) error {
	if r == nil || !r.policy.enabled {
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
		if attempt >= retryAttempts {
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
	d := retryBaseBackoff
	for i := 1; i < attempt && d < retryMaxBackoff; i++ {
		d *= retryMultiplier
	}
	return r.rng.Jitter(min(d, retryMaxBackoff), retryJitter)
}

// IsTransient reports whether an error chain is worth a failover:
// injected faults, attempt timeouts, and budget exhaustion are
// transient by construction; anything else (bad request, unknown
// function) would fail identically on every node.
func IsTransient(err error) bool {
	return errors.Is(err, ErrInjected) || errors.Is(err, ErrAttemptTimeout) || errors.Is(err, ErrRetryBudget)
}
