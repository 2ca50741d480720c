package metrics

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestCardinalityBudgetRedirectsToOverflow(t *testing.T) {
	r := NewRegistry()
	r.SetCardinalityLimit(3)
	for i := 0; i < 10; i++ {
		r.Counter(Name("invokes_total", "fn", fmt.Sprintf("fn-%02d", i))).Inc()
	}
	// The first 3 label values got their own series; the other 7 share
	// the overflow series.
	of := r.Counter(OverflowName("invokes_total"))
	if of.Value() != 7 {
		t.Fatalf("overflow series = %d, want 7", of.Value())
	}
	for i := 0; i < 3; i++ {
		c := r.Counter(Name("invokes_total", "fn", fmt.Sprintf("fn-%02d", i)))
		if c.Value() != 1 {
			t.Fatalf("admitted series fn-%02d = %d, want 1", i, c.Value())
		}
	}
	// A redirected name resolves to the shared instrument, including
	// via the read index on repeat lookup.
	if r.Counter(Name("invokes_total", "fn", "fn-09")) != of {
		t.Fatal("redirected name does not alias the overflow series")
	}
	got := r.Counter(Name("telemetry_cardinality_overflow_total", "family", "invokes_total")).Value()
	if got != 7 {
		t.Fatalf("telemetry_cardinality_overflow_total{family} = %d, want 7", got)
	}
}

func TestCardinalityUnlabeledAndOverflowExempt(t *testing.T) {
	r := NewRegistry()
	r.SetCardinalityLimit(1)
	// Unlabeled names are never governed.
	for _, name := range []string{"a_total", "b_total", "c_total"} {
		r.Counter(name).Inc()
	}
	for _, name := range []string{"a_total", "b_total", "c_total"} {
		if r.Counter(name).Value() != 1 {
			t.Fatalf("unlabeled %s was governed", name)
		}
	}
	// The governor's own accounting family never redirects itself even
	// at limit 1.
	r.Counter(Name("x_total", "k", "1"))
	r.Counter(Name("x_total", "k", "2"))
	r.Counter(Name("x_total", "k", "3"))
	snap := r.Snapshot()
	overflowRows := 0
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, "telemetry_cardinality_overflow_total{") {
			overflowRows++
		}
	}
	if overflowRows != 1 {
		t.Fatalf("overflow accounting rows = %d, want 1", overflowRows)
	}
}

func TestCardinalityGaugesAndHistograms(t *testing.T) {
	r := NewRegistry()
	r.SetCardinalityLimit(2)
	for i := 0; i < 5; i++ {
		r.Gauge(Name("depth", "q", fmt.Sprintf("%d", i))).Set(int64(i))
		r.Histogram(Name("lat", "q", fmt.Sprintf("%d", i))).Observe(1)
	}
	og := r.Gauge(OverflowName("depth"))
	if r.Gauge(Name("depth", "q", "4")) != og {
		t.Fatal("gauge not redirected")
	}
	oh := r.Histogram(OverflowName("lat"))
	if oh.Count() != 3 {
		t.Fatalf("overflow histogram count = %d, want 3", oh.Count())
	}
	if r.Histogram(Name("lat", "q", "3")) != oh {
		t.Fatal("histogram not redirected")
	}
}

// Aliased names must not duplicate rows in exports: the dump stays
// sorted and each live series appears once.
func TestSnapshotDeduplicatesAliases(t *testing.T) {
	r := NewRegistry()
	r.SetCardinalityLimit(1)
	for i := 0; i < 4; i++ {
		r.Counter(Name("dup_total", "i", fmt.Sprintf("%d", i))).Inc()
	}
	snap := r.Snapshot()
	seen := map[string]int{}
	for _, c := range snap.Counters {
		seen[c.Name]++
		if seen[c.Name] > 1 {
			t.Fatalf("duplicate export row %s", c.Name)
		}
	}
	if seen[OverflowName("dup_total")] != 1 {
		t.Fatal("overflow series missing from export")
	}
	var buf bytes.Buffer
	if err := snap.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), OverflowName("dup_total")); got != 1 {
		t.Fatalf("overflow series rendered %d times", got)
	}
}

func TestCardinalityAuditTopK(t *testing.T) {
	r := NewRegistry()
	r.SetCardinalityLimit(4)
	for i := 0; i < 6; i++ {
		r.Counter(Name("big_total", "i", fmt.Sprintf("%d", i))).Inc()
	}
	r.Counter(Name("small_total", "i", "0")).Inc()
	r.Counter("plain_total").Inc()

	rep := r.CardinalityAudit(1)
	if len(rep.Families) != 1 {
		t.Fatalf("TopK(1) returned %d families", len(rep.Families))
	}
	top := rep.Families[0]
	// big_total: 4 admitted + 1 overflow = 5 live series.
	if top.Family != "big_total" || top.Series != 5 || top.OverflowedNames != 2 || top.Limit != 4 {
		t.Fatalf("top family = %+v", top)
	}
	if rep.TotalSeries == 0 {
		t.Fatal("total series not counted")
	}
	full := r.CardinalityAudit(0)
	if len(full.Families) < 4 {
		t.Fatalf("full audit has %d families", len(full.Families))
	}
	for i := 1; i < len(full.Families); i++ {
		a, b := full.Families[i-1], full.Families[i]
		if a.Series < b.Series || (a.Series == b.Series && a.Family > b.Family) {
			t.Fatalf("audit not ordered: %+v before %+v", a, b)
		}
	}
}

func TestCardinalityDisabledByDefault(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 100; i++ {
		r.Counter(Name("free_total", "i", fmt.Sprintf("%d", i))).Inc()
	}
	if v := r.Counter(OverflowName("free_total")).Value(); v != 0 {
		t.Fatalf("ungoverned registry overflowed: %d", v)
	}
}
