package timeseries

import (
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/metrics"
)

// watchFixture builds a sampler fed by two loop counters plus a
// watchdog with a journal, the shape the gateway and the seeded storm
// test use.
func watchFixture() (*metrics.Registry, *events.Journal, *Sampler, *Watchdog, *int, *int) {
	reg := metrics.NewRegistry()
	j := events.NewJournal(256)
	requests, failures := new(int), new(int)
	s := NewSampler(reg, 0)
	s.AddProbe("requests_total", func() float64 { return float64(*requests) })
	s.AddProbe("failures_total", func() float64 { return float64(*failures) })
	w := NewWatchdog(s, j, reg)
	return reg, j, s, w, requests, failures
}

func TestWatchdogFireAndResolve(t *testing.T) {
	reg, j, s, w, requests, failures := watchFixture()
	w.AddRule(Rule{
		Name:      "invoke-success-rate",
		Ratio:     &RatioSource{Num: "failures_total", Den: "requests_total", Complement: true},
		Op:        AtLeast,
		Threshold: 0.99,
	})

	s.Sample(0) // zero baseline
	// 100 requests, 1 failure → 99% success: exactly at threshold, ok.
	*requests, *failures = 100, 1
	s.Sample(ms(1))
	if fired := w.Evaluate(ms(1)); len(fired) != 0 {
		t.Fatalf("fired at threshold: %v", fired)
	}
	// 10 more requests, 5 more failures → success 94/110+... < 99%.
	*requests, *failures = 110, 6
	s.Sample(ms(2))
	// Plant causal evidence: a traced error event.
	sc := j.NewScope("gateway", "invoke", ms(2))
	sc.Instant("gateway", "fail", ms(2), events.A("error", "boom"))
	sc.Close(ms(2))
	fired := w.Evaluate(ms(2))
	if len(fired) != 1 {
		t.Fatalf("fired = %v", fired)
	}
	a := fired[0]
	if a.Rule != "invoke-success-rate" || a.Op != ">=" || a.Threshold != 0.99 {
		t.Fatalf("alert = %+v", a)
	}
	if a.Link.Trace == 0 {
		t.Fatal("alert missing causal link")
	}
	if got := j.Trace(a.Link.Trace); len(got) == 0 {
		t.Fatal("alert link does not resolve to a trace")
	}
	if got := w.Firing(); len(got) != 1 || got[0] != "invoke-success-rate" {
		t.Fatalf("firing = %v", got)
	}
	// Still violated: no re-fire.
	if fired := w.Evaluate(ms(2)); len(fired) != 0 {
		t.Fatalf("re-fired while already firing: %v", fired)
	}
	// Recover: flood with successes.
	*requests = 2000
	s.Sample(ms(3))
	if fired := w.Evaluate(ms(3)); len(fired) != 0 {
		t.Fatalf("fired on recovery: %v", fired)
	}
	if got := w.Firing(); len(got) != 0 {
		t.Fatalf("still firing after recovery: %v", got)
	}
	if got := len(w.Alerts()); got != 1 {
		t.Fatalf("alert history = %d", got)
	}

	snap := reg.Snapshot()
	wantCounter := `slo_alerts_total{rule="invoke-success-rate"}`
	found := false
	for _, c := range snap.Counters {
		if c.Name == wantCounter && c.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing %s=1 in %v", wantCounter, snap.Counters)
	}
	for _, g := range snap.Gauges {
		if g.Name == `slo_rule_firing{rule="invoke-success-rate"}` && g.Value != 0 {
			t.Fatalf("firing gauge not reset: %d", g.Value)
		}
	}
	// An alert instant and a resolve instant landed in the journal.
	var alerts, resolves int
	for _, e := range j.Events() {
		if e.Component != "slo" {
			continue
		}
		switch e.Name {
		case "alert":
			alerts++
			if e.Link.Trace == 0 {
				t.Fatal("journal alert event lost its link")
			}
		case "resolve":
			resolves++
		}
	}
	if alerts != 1 || resolves != 1 {
		t.Fatalf("journal slo events: %d alerts, %d resolves", alerts, resolves)
	}
}

func TestWatchdogMinDenSuppression(t *testing.T) {
	_, _, s, w, requests, failures := watchFixture()
	w.AddRule(Rule{
		Name:      "rate",
		Ratio:     &RatioSource{Num: "failures_total", Den: "requests_total", Complement: true, MinDen: 50},
		Op:        AtLeast,
		Threshold: 0.99,
	})
	s.Sample(0)
	// 2 requests, both failures: 0% success — but below the MinDen floor.
	*requests, *failures = 2, 2
	s.Sample(ms(1))
	if fired := w.Evaluate(ms(1)); len(fired) != 0 {
		t.Fatalf("fired below MinDen: %v", fired)
	}
	// Past the floor the same ratio fires.
	*requests, *failures = 60, 30
	s.Sample(ms(2))
	if fired := w.Evaluate(ms(2)); len(fired) != 1 {
		t.Fatalf("did not fire past MinDen: %v", fired)
	}
}

// A value rule reads the newest point only: one bad sample fires it,
// the next good one resolves it.
func TestWatchdogValueRule(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewSampler(reg, 0)
	lat := 0.0
	s.AddProbe("p99_lat", func() float64 { return lat })
	w := NewWatchdog(s, nil, reg) // nil journal: alerts still recorded
	w.AddRule(Rule{
		Name:      "latency",
		Value:     &ValueSource{Series: "p99_lat"},
		Op:        AtMost,
		Threshold: 100,
	})
	for i := 1; i <= 3; i++ {
		lat = 50
		s.Sample(ms(i))
	}
	if fired := w.Evaluate(ms(3)); len(fired) != 0 {
		t.Fatalf("fired under threshold: %v", fired)
	}
	lat = 500
	s.Sample(ms(4))
	fired := w.Evaluate(ms(4))
	if len(fired) != 1 || fired[0].Value != 500 {
		t.Fatalf("fired = %+v", fired)
	}
	lat = 50
	s.Sample(ms(5))
	w.Evaluate(ms(5))
	if got := w.Firing(); len(got) != 0 {
		t.Fatalf("still firing after the value recovered: %v", got)
	}
}

func TestWatchdogSkipsRulesWithoutData(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewSampler(reg, 0)
	w := NewWatchdog(s, nil, reg)
	w.AddRule(Rule{
		Name:      "nodata",
		Value:     &ValueSource{Series: "missing"},
		Op:        AtLeast,
		Threshold: 1,
	})
	if fired := w.Evaluate(ms(1)); len(fired) != 0 {
		t.Fatalf("fired with no data: %v", fired)
	}
}

func TestWatchdogAddRulePanicsOnBadSources(t *testing.T) {
	reg := metrics.NewRegistry()
	w := NewWatchdog(NewSampler(reg, 0), nil, reg)
	for _, r := range []Rule{
		{Name: "neither"},
		{Name: "both", Ratio: &RatioSource{}, Value: &ValueSource{}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("AddRule(%s) did not panic", r.Name)
				}
			}()
			w.AddRule(r)
		}()
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{Name: "sr", Ratio: &RatioSource{}, Op: AtLeast, Threshold: 0.99}
	if got := r.String(); got != "sr >= 0.99 over all history" {
		t.Fatalf("String = %q", got)
	}
}

// scanErrorEvidence is LastErrorEvidence as it was before the journal
// could search itself: copy the ring, scan back.
func scanErrorEvidence(j *events.Journal) events.Ref {
	evs := j.Events()
	for i := len(evs) - 1; i >= 0; i-- {
		e := evs[i]
		if e.Trace == 0 {
			continue
		}
		for _, a := range e.Attrs {
			if a.Key == "error" {
				return events.Ref{Trace: e.Trace, Span: e.Span}
			}
		}
	}
	return events.Ref{}
}

// TestLastErrorEvidenceMatchesFullScan drives a journal through a seeded
// mix of traces on several nodes — errors in some, traceless errors that
// must not count, enough events to overflow the ring, traces dropped by
// a sampler — and checks after every step that the newest-first search
// names the event the full scan names.
func TestLastErrorEvidenceMatchesFullScan(t *testing.T) {
	j := events.NewJournal(96)
	if got := LastErrorEvidence(j); !got.IsZero() {
		t.Fatalf("empty journal evidence %+v", got)
	}
	rng := uint64(42)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % n
	}
	var traces []events.TraceID
	errors, nonZero := 0, 0
	for step := 0; step < 600; step++ {
		ts := time.Duration(step) * time.Millisecond
		sc := j.NewScope("gateway", "request", ts)
		sc.SetNode([]string{"", "node-01", "node-02", "node-03", "node-04"}[next(5)])
		traces = append(traces, sc.TraceID())
		for k := next(4); k >= 0; k-- {
			if next(6) == 0 {
				sc.Instant("core", "fail", ts, events.A("error", "boom"))
				errors++
			} else {
				sc.Instant("core", "step", ts, events.A("ok", "1"))
			}
		}
		sc.Close(ts)
		if next(5) == 0 {
			j.Instant("watchdog", "note", ts, events.A("error", "traceless, not evidence"))
		}
		if next(7) == 0 {
			// A sampler drop, often of the very trace that holds the
			// newest error.
			j.DropTrace(traces[len(traces)-1-next(min(len(traces), 3))], 0)
		}
		got, want := LastErrorEvidence(j), scanErrorEvidence(j)
		if got != want {
			t.Fatalf("step %d: LastErrorEvidence = %+v, full scan = %+v", step, got, want)
		}
		if !want.IsZero() {
			nonZero++
		}
	}
	if j.Dropped() == 0 || errors == 0 || nonZero == 0 || nonZero == 600 {
		t.Fatalf("weak scenario: dropped=%d errors=%d steps with evidence=%d/600",
			j.Dropped(), errors, nonZero)
	}
}
