package faults

import (
	"errors"
	"fmt"
	"strings"
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

// testPolicy is the fixed retry schedule without deadline or budget.
func testPolicy() RetryPolicy {
	return RetryPolicy{enabled: true}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	reg := metrics.NewRegistry()
	r := NewRetrier(testPolicy(), reg)
	clock := vclock.New()
	clock.Observe(reg, nil) // the ledger counts the backoffs
	if err := r.DoWithDiscard(clock, "", failN(clock, 2, time.Millisecond), nil); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("retries_total").Value(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
	// 3 attempts x 1ms, backoffs 2ms + 4ms, each jittered by at most 25%.
	if now := clock.Now(); now < 7500*time.Microsecond || now > 10500*time.Microsecond {
		t.Fatalf("clock = %v, want 9ms ± 1.5ms", now)
	}
}

func TestRetryExhaustion(t *testing.T) {
	reg := metrics.NewRegistry()
	r := NewRetrier(testPolicy(), reg)
	clock := vclock.New()
	clock.Observe(reg, nil) // the ledger counts the backoffs
	err := r.DoWithDiscard(clock, "", failN(clock, 100, time.Millisecond), nil)
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
	err := r.DoWithDiscard(clock, "", func() error { calls++; return errBoom }, nil)
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
	err := r.DoWithDiscard(clock, "", func() error {
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
	pol.Budget = 8 * time.Millisecond
	r := NewRetrier(pol, metrics.NewRegistry())
	clock := vclock.New()
	// Each attempt costs 2ms; after two attempts and one 2ms±25%
	// backoff (5.5-6.5ms) the next 4ms±25% backoff would overrun the
	// 8ms budget.
	err := r.DoWithDiscard(clock, "", failN(clock, 100, 2*time.Millisecond), nil)
	if !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("err = %v, want ErrRetryBudget", err)
	}
	if !strings.Contains(err.Error(), "after 2 attempts") {
		t.Fatalf("err = %v, want the budget to stop the third attempt", err)
	}
}

func TestJitterIsDeterministic(t *testing.T) {
	run := func() time.Duration {
		r := NewRetrier(testPolicy(), metrics.NewRegistry())
		clock := vclock.New()
		_ = r.DoWithDiscard(clock, "", failN(clock, 100, time.Millisecond), nil)
		return clock.Now()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("jittered retry timing diverged: %v vs %v", a, b)
	}
	// 4 attempts x 1ms plus backoffs of 2, 4 and 8ms: jitter moved them.
	if a == 18*time.Millisecond {
		t.Fatal("backoffs carry no jitter")
	}
}

func TestDisabledRetrierRunsOnce(t *testing.T) {
	var r *Retrier
	calls := 0
	if err := r.DoWithDiscard(vclock.New(), "", func() error { calls++; return errBoom }, nil); err != errBoom || calls != 1 {
		t.Fatalf("nil retrier: err=%v calls=%d", err, calls)
	}
	r = NewRetrier(RetryPolicy{}, nil)
	calls = 0
	if err := r.DoWithDiscard(vclock.New(), "", func() error { calls++; return errBoom }, nil); err != errBoom || calls != 1 {
		t.Fatalf("zero-policy retrier: err=%v calls=%d", err, calls)
	}
	if (RetryPolicy{}).Enabled() || !DefaultRetryPolicy().Enabled() {
		t.Fatal("only the default policy should report enabled")
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
