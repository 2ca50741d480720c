package faults

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/vclock"
)

var errBoom = errors.New("boom")

// failN returns an op that fails n times, then succeeds, charging cost
// per attempt.
func failN(clock *vclock.Clock, n int, cost time.Duration) func() error {
	calls := 0
	return func() error {
		clock.Advance(cost)
		calls++
		if calls <= n {
			return fmt.Errorf("attempt %d: %w", calls, errBoom)
		}
		return nil
	}
}

func testPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
		Multiplier:  2,
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	reg := metrics.NewRegistry()
	r := NewRetrier(testPolicy(), reg)
	clock := vclock.New()
	if err := r.DoTraced(clock, nil, "", failN(clock, 2, time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("retries_total").Value(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
	// 3 attempts x 1ms, backoffs 2ms + 4ms (no jitter).
	if clock.Now() != 9*time.Millisecond {
		t.Fatalf("clock = %v, want 9ms", clock.Now())
	}
}

func TestRetryExhaustion(t *testing.T) {
	reg := metrics.NewRegistry()
	r := NewRetrier(testPolicy(), reg)
	clock := vclock.New()
	err := r.DoTraced(clock, nil, "", failN(clock, 100, time.Millisecond))
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want wrapped errBoom", err)
	}
	if got := reg.Counter("retry_exhausted_total").Value(); got != 1 {
		t.Fatalf("exhausted = %d", got)
	}
	if got := reg.Counter("retries_total").Value(); got != 3 {
		t.Fatalf("retries = %d, want 3 (4 attempts)", got)
	}
}

func TestPermanentErrorNotRetried(t *testing.T) {
	pol := testPolicy()
	pol.Permanent = func(err error) bool { return errors.Is(err, errBoom) }
	r := NewRetrier(pol, metrics.NewRegistry())
	clock := vclock.New()
	calls := 0
	err := r.DoTraced(clock, nil, "", func() error { calls++; return errBoom })
	if err != errBoom || calls != 1 {
		t.Fatalf("err = %v after %d calls, want errBoom after 1", err, calls)
	}
}

func TestAttemptTimeoutDiscardsSlowSuccess(t *testing.T) {
	pol := testPolicy()
	pol.AttemptTimeout = 10 * time.Millisecond
	reg := metrics.NewRegistry()
	r := NewRetrier(pol, reg)
	clock := vclock.New()
	discarded := 0
	slowOnce := true
	err := r.DoWithDiscardTraced(clock, nil, "", func() error {
		if slowOnce {
			slowOnce = false
			clock.Advance(30 * time.Millisecond) // a latency spike
			return nil                           // ...but "succeeded"
		}
		clock.Advance(time.Millisecond)
		return nil
	}, func() { discarded++ })
	if err != nil {
		t.Fatal(err)
	}
	if discarded != 1 {
		t.Fatalf("discarded = %d, want 1", discarded)
	}
	if got := reg.Counter("retry_attempt_timeouts_total").Value(); got != 1 {
		t.Fatalf("timeouts = %d, want 1", got)
	}
}

func TestBudgetCutsRetriesShort(t *testing.T) {
	pol := testPolicy()
	pol.Budget = 5 * time.Millisecond
	r := NewRetrier(pol, metrics.NewRegistry())
	clock := vclock.New()
	// Each attempt costs 2ms; after two attempts (4ms) the 4ms backoff
	// would overrun the 5ms budget.
	err := r.DoTraced(clock, nil, "", failN(clock, 100, 2*time.Millisecond))
	if !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("err = %v, want ErrRetryBudget", err)
	}
}

func TestJitterIsDeterministic(t *testing.T) {
	pol := testPolicy()
	pol.Jitter = 0.25
	pol.Seed = 99
	run := func() time.Duration {
		r := NewRetrier(pol, metrics.NewRegistry())
		clock := vclock.New()
		_ = r.DoTraced(clock, nil, "", failN(clock, 100, time.Millisecond))
		return clock.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("jittered retry timing diverged: %v vs %v", a, b)
	}
}

func TestDisabledRetrierRunsOnce(t *testing.T) {
	var r *Retrier
	calls := 0
	if err := r.DoTraced(vclock.New(), nil, "", func() error { calls++; return errBoom }); err != errBoom || calls != 1 {
		t.Fatalf("nil retrier: err=%v calls=%d", err, calls)
	}
	r = NewRetrier(RetryPolicy{}, nil)
	calls = 0
	if err := r.DoTraced(vclock.New(), nil, "", func() error { calls++; return errBoom }); err != errBoom || calls != 1 {
		t.Fatalf("zero-policy retrier: err=%v calls=%d", err, calls)
	}
	if r.Enabled() {
		t.Fatal("zero policy reports enabled")
	}
}

func TestIsTransient(t *testing.T) {
	if !IsTransient(&Fault{Site: SiteVMMRestore, Kind: KindError}) {
		t.Fatal("injected fault not transient")
	}
	if !IsTransient(fmt.Errorf("wrapped: %w", ErrAttemptTimeout)) {
		t.Fatal("timeout not transient")
	}
	if IsTransient(errBoom) {
		t.Fatal("arbitrary error transient")
	}
}
