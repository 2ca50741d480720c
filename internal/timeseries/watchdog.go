package timeseries

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/events"
	"repro/internal/metrics"
)

// Op is the comparison direction of a rule.
type Op int

// Rule operators: the measured value must stay AtLeast (≥) or AtMost
// (≤) the threshold; a rule fires when the bound is violated.
const (
	AtLeast Op = iota
	AtMost
)

func (o Op) String() string {
	if o == AtLeast {
		return ">="
	}
	return "<="
}

// RatioSource measures a rule as the ratio of two series' deltas over
// all retained history (errors/requests since the first sample). With
// Complement the measured value is 1 - num/den, turning an error ratio
// into a success rate.
type RatioSource struct {
	Num, Den   string
	Complement bool
	// MinDen suppresses evaluation until the denominator's delta
	// reaches this floor, so a rule never fires off two requests.
	MinDen float64
}

// ValueSource measures a rule directly from the newest point of one
// series: the sampled p99 latency, sharing efficiency right now.
type ValueSource struct {
	Series string
}

// Rule is one declarative SLO: a measurement (exactly one of Ratio or
// Value), an operator and a threshold.
type Rule struct {
	Name      string
	Ratio     *RatioSource
	Value     *ValueSource
	Op        Op
	Threshold float64
}

// String renders the rule's contract, e.g.
// "invoke-success-rate >= 0.99 over all history".
func (r Rule) String() string {
	return fmt.Sprintf("%s %s %s over all history", r.Name, r.Op, formatFloat(r.Threshold))
}

// Alert is one firing of a rule.
type Alert struct {
	Rule      string        `json:"rule"`
	At        time.Duration `json:"at_ns"`
	Value     float64       `json:"value"`
	Threshold float64       `json:"threshold"`
	Op        string        `json:"op"`
	// Ref is the alert's own journal instant; Link the causal evidence
	// it points at (the most recent error-carrying trace event), which
	// GET /trace/{Link.Trace} resolves.
	Ref  events.Ref `json:"ref"`
	Link events.Ref `json:"link"`
}

type ruleState struct {
	rule   Rule
	firing bool
	fired  *metrics.Counter
	gauge  *metrics.Gauge
}

// Watchdog evaluates SLO rules against a sampler's series on the
// virtual clock. A rule transition into violation emits an "slo alert"
// instant into the event journal, causally linked to the most recent
// error evidence so the alert joins the trace that broke the SLO; the
// transition back emits an "slo resolve" instant. Safe for concurrent
// use.
type Watchdog struct {
	mu      sync.Mutex
	sampler *Sampler
	journal *events.Journal
	reg     *metrics.Registry
	rules   []*ruleState
	alerts  []Alert
}

// NewWatchdog builds a watchdog over a sampler, emitting alert events
// into journal (nil is fine: alerts are still recorded and returned)
// and per-rule slo_alerts_total / slo_rule_firing metrics into reg.
// Each alert links to the newest journal event that carries an "error"
// attribute inside a trace (LastErrorEvidence).
func NewWatchdog(s *Sampler, journal *events.Journal, reg *metrics.Registry) *Watchdog {
	return &Watchdog{sampler: s, journal: journal, reg: reg}
}

// LastErrorEvidence scans the journal newest-first for an in-trace
// event carrying an "error" attribute — the default causal anchor for
// an alert (the failure closest to the SLO breach).
func LastErrorEvidence(j *events.Journal) events.Ref {
	e, _ := j.Newest(func(e *events.Event) bool {
		_, errored := events.AttrValue(e.Attrs, "error")
		return e.Trace != 0 && errored
	})
	return events.Ref{Trace: e.Trace, Span: e.Span}
}

// AddRule registers a rule. Exactly one of Ratio or Value must be set.
func (w *Watchdog) AddRule(r Rule) {
	if (r.Ratio == nil) == (r.Value == nil) {
		panic(fmt.Sprintf("timeseries: rule %q must set exactly one of Ratio or Value", r.Name))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rules = append(w.rules, &ruleState{
		rule:  r,
		fired: w.reg.Counter(metrics.Name("slo_alerts_total", "rule", r.Name)),
		gauge: w.reg.Gauge(metrics.Name("slo_rule_firing", "rule", r.Name)),
	})
}

// Rules returns the registered rules in registration order.
func (w *Watchdog) Rules() []Rule {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Rule, 0, len(w.rules))
	for _, rs := range w.rules {
		out = append(out, rs.rule)
	}
	return out
}

// Alerts returns every alert fired so far, oldest first.
func (w *Watchdog) Alerts() []Alert {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Alert(nil), w.alerts...)
}

// Firing returns the names of the rules currently in violation.
func (w *Watchdog) Firing() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []string
	for _, rs := range w.rules {
		if rs.firing {
			out = append(out, rs.rule.Name)
		}
	}
	return out
}

// Evaluate measures every rule at virtual time now and returns the
// alerts that fired on this evaluation (ok→violated transitions).
// Rules whose sources lack data are skipped, not fired.
func (w *Watchdog) Evaluate(now time.Duration) []Alert {
	w.mu.Lock()
	defer w.mu.Unlock()
	var fired []Alert
	for _, rs := range w.rules {
		v, ok := w.measure(rs.rule)
		if !ok {
			continue
		}
		violated := false
		switch rs.rule.Op {
		case AtLeast:
			violated = v < rs.rule.Threshold
		case AtMost:
			violated = v > rs.rule.Threshold
		}
		switch {
		case violated && !rs.firing:
			rs.firing = true
			rs.fired.Inc()
			rs.gauge.Set(1)
			link := LastErrorEvidence(w.journal)
			ref := w.journal.InstantLinked("slo", "alert", now, link,
				events.A("rule", rs.rule.Name),
				events.A("contract", rs.rule.String()),
				events.A("value", formatFloat(v)))
			a := Alert{
				Rule: rs.rule.Name, At: now, Value: v,
				Threshold: rs.rule.Threshold, Op: rs.rule.Op.String(),
				Ref: ref, Link: link,
			}
			w.alerts = append(w.alerts, a)
			fired = append(fired, a)
		case !violated && rs.firing:
			rs.firing = false
			rs.gauge.Set(0)
			w.journal.Instant("slo", "resolve", now,
				events.A("rule", rs.rule.Name),
				events.A("value", formatFloat(v)))
		}
	}
	return fired
}

// measure computes a rule's current value; ok is false when the
// backing series do not yet hold enough data.
func (w *Watchdog) measure(r Rule) (float64, bool) {
	if r.Ratio != nil {
		den, ok := w.sampler.Delta(r.Ratio.Den)
		if !ok || den <= 0 || den < r.Ratio.MinDen {
			return 0, false
		}
		num, ok := w.sampler.Delta(r.Ratio.Num)
		if !ok {
			return 0, false
		}
		v := num / den
		if r.Ratio.Complement {
			v = 1 - v
		}
		return v, true
	}
	p, ok := w.sampler.Last(r.Value.Series)
	if !ok {
		return 0, false
	}
	return p.Value, true
}
