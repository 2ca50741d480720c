package metrics

import (
	"sort"
	"strings"
	"sync"
)

// Cardinality governor: per-family budgets on labeled series.
//
// A "family" is everything before the '{' of a labeled name —
// cluster_node_invocations_total{node="node-01"} belongs to family
// cluster_node_invocations_total. Metric families whose labels carry
// unbounded values (per-function, per-trace, per-tenant) grow one
// series per value forever; at wild-storm scale that is the registry's
// own memory leak. With a budget set, a family at its limit aliases
// every further new name onto one shared overflow series —
// family{series="__overflow__"} — so recording still works (the
// overflow series aggregates the long tail) and the hot path still
// resolves through the frozen read index, while the registry's series
// count stays bounded. Each redirected name increments
// telemetry_cardinality_overflow_total{family}.
//
// Determinism: admission is first-come-first-served, so the set of
// admitted series is a pure function of a sequential workload — the
// same caveat internal/faults documents for concurrent ones.

// OverflowSeries is the label value marking a family's shared
// overflow series.
const OverflowSeries = "__overflow__"

// overflowCounterFamily is the governor's own accounting family; it is
// exempt from governance (it must never redirect itself).
const overflowCounterFamily = "telemetry_cardinality_overflow_total"

// cardinality holds the governor's state; zero value = disabled.
type cardinality struct {
	mu         sync.Mutex
	limit      int
	famCount   map[string]int   // admitted labeled series per family
	overflowed map[string]int64 // redirected (aliased) names per family
}

// OverflowName returns the shared overflow series name of a family.
func OverflowName(family string) string {
	return Name(family, "series", OverflowSeries)
}

// SetCardinalityLimit sets the per-family budget for labeled
// series: once a family has limit distinct admitted series, further new
// names alias onto its overflow series. 0 leaves families unbounded.
// Already-created series are never retired.
func (r *Registry) SetCardinalityLimit(limit int) {
	if r == nil {
		return
	}
	r.card.mu.Lock()
	r.card.limit = limit
	r.card.mu.Unlock()
}

// admitSeries decides whether a new series name may be created or must
// redirect to its family's overflow series. Unlabeled names and the
// governor's own instruments are always admitted. Called with the
// owning table's create lock held; takes only the leaf card.mu.
func (r *Registry) admitSeries(name string) (family string, redirect bool) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return "", false
	}
	family = name[:i]
	if family == overflowCounterFamily || strings.HasSuffix(name, `{series="`+OverflowSeries+`"}`) {
		return family, false
	}
	c := &r.card
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.limit <= 0 {
		return family, false
	}
	if c.famCount[family] >= c.limit {
		return family, true
	}
	if c.famCount == nil {
		c.famCount = make(map[string]int)
	}
	c.famCount[family]++
	return family, false
}

// noteOverflow accounts one redirected name: the audit ledger plus the
// exported telemetry_cardinality_overflow_total{family} counter.
func (r *Registry) noteOverflow(family string) {
	c := &r.card
	c.mu.Lock()
	if c.overflowed == nil {
		c.overflowed = make(map[string]int64)
	}
	c.overflowed[family]++
	c.mu.Unlock()
	r.Counter(Name("telemetry_cardinality_overflow_total", "family", family)).Inc()
}

// FamilyCardinality is one family's row in the registry audit.
type FamilyCardinality struct {
	Family string `json:"family"`
	// Series counts distinct live series of the family (aliases dedup
	// onto their shared overflow series).
	Series int `json:"series"`
	// Limit is the family's resolved budget (0 = unbounded).
	Limit int `json:"limit,omitempty"`
	// OverflowedNames counts distinct names redirected onto the
	// family's overflow series.
	OverflowedNames int64 `json:"overflowed_names,omitempty"`
}

// CardinalityReport is the registry audit: the TopK families by live
// series count, ordered largest first (ties by name), plus the
// registry-wide total.
type CardinalityReport struct {
	TotalSeries int                 `json:"total_series"`
	Families    []FamilyCardinality `json:"families"`
}

// CardinalityAudit walks the registry and reports the k largest
// families by series count (every family when k <= 0). Unlabeled
// metrics count as single-series families of their own name.
func (r *Registry) CardinalityAudit(k int) CardinalityReport {
	var rep CardinalityReport
	if r == nil {
		return rep
	}
	counts := make(map[string]int)
	bump := func(name string) {
		fam, _, _ := strings.Cut(name, "{")
		counts[fam]++
		rep.TotalSeries++
	}
	for _, c := range r.counters.load().created {
		bump(c.name)
	}
	for _, g := range r.gauges.load().created {
		bump(g.name)
	}
	for _, h := range r.histograms.load().created {
		bump(h.name)
	}
	c := &r.card
	c.mu.Lock()
	limit := c.limit
	if limit < 0 {
		limit = 0
	}
	for fam, n := range counts {
		rep.Families = append(rep.Families, FamilyCardinality{
			Family: fam, Series: n, Limit: limit, OverflowedNames: c.overflowed[fam],
		})
	}
	c.mu.Unlock()
	sort.Slice(rep.Families, func(i, j int) bool {
		a, b := rep.Families[i], rep.Families[j]
		if a.Series != b.Series {
			return a.Series > b.Series
		}
		return a.Family < b.Family
	})
	if k > 0 && len(rep.Families) > k {
		rep.Families = rep.Families[:k]
	}
	return rep
}
