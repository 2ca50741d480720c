package metrics

import (
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestCounterSemantics(t *testing.T) {
	cases := []struct {
		name string
		ops  func(c *Counter)
		want int64
	}{
		{"zero", func(c *Counter) {}, 0},
		{"inc", func(c *Counter) { c.Inc(); c.Inc() }, 2},
		{"add", func(c *Counter) { c.Add(5); c.Add(0); c.Inc() }, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			c := r.Counter("c")
			tc.ops(c)
			if got := c.Value(); got != tc.want {
				t.Fatalf("value = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestCounterNeverDecreases(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	NewRegistry().Counter("c").Add(-1)
}

func TestGaugeSemantics(t *testing.T) {
	cases := []struct {
		name string
		ops  func(g *Gauge)
		want int64
	}{
		{"zero", func(g *Gauge) {}, 0},
		{"set", func(g *Gauge) { g.Set(42) }, 42},
		{"add-sub", func(g *Gauge) { g.Add(10); g.Add(-4) }, 6},
		{"set-then-add", func(g *Gauge) { g.Set(100); g.Add(-100) }, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			g := r.Gauge("g")
			tc.ops(g)
			if got := g.Value(); got != tc.want {
				t.Fatalf("value = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramWith("h", "", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 10, 11, 1000} {
		h.Observe(v)
	}
	snap := h.snapshot()
	// Cumulative: le=1 -> {0.5, 1}; le=10 -> +{2, 10}; le=100 -> +{11};
	// +Inf -> +{1000}.
	wantCum := []uint64{2, 4, 5, 6}
	if len(snap.Buckets) != len(wantCum) {
		t.Fatalf("buckets = %d, want %d", len(snap.Buckets), len(wantCum))
	}
	for i, want := range wantCum {
		if snap.Buckets[i].Count != want {
			t.Errorf("bucket %d = %d, want %d", i, snap.Buckets[i].Count, want)
		}
	}
	if !math.IsInf(snap.Buckets[3].UpperBound, 1) {
		t.Error("last bucket bound is not +Inf")
	}
	if snap.Count != 6 || snap.Sum != 1024.5 || snap.Min != 0.5 || snap.Max != 1000 {
		t.Fatalf("summary = %+v", snap)
	}
}

func TestHistogramPercentilesMatchStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	var raw []float64
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		v := float64(rnd.Int63n(int64(5 * time.Second)))
		raw = append(raw, v)
		h.Observe(v)
	}
	for _, p := range []float64{0, 25, 50, 90, 99, 100} {
		want := stats.Percentile(raw, p)
		if got := h.win.percentile(p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
}

func TestHistogramSampleWindowWraps(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramWith("h", "", []float64{1e12})
	for i := 0; i < maxSamples+100; i++ {
		h.Observe(float64(i))
	}
	if histCount(h) != maxSamples+100 {
		t.Fatalf("count = %d", histCount(h))
	}
	// Samples 0..99 were overwritten; the window minimum is 100.
	if got := h.win.percentile(0); got != 100 {
		t.Fatalf("window min = %g, want 100", got)
	}
}

func TestRegistryConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	const writers = 16
	const perWriter = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Counter("shared_total").Inc()
				r.Gauge("depth").Add(1)
				r.Gauge("depth").Add(-1)
				r.Histogram("lat").Observe(float64(time.Duration(i) * time.Microsecond))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != writers*perWriter {
		t.Fatalf("counter = %d, want %d", got, writers*perWriter)
	}
	if got := r.Gauge("depth").Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	if got := histCount(r.Histogram("lat")); got != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", got, writers*perWriter)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(-1)
	h.Observe(4)
	h.Observe(float64(time.Second))
	if n, p50, _ := h.Summary(); c.Value() != 0 || g.Value() != 0 || n != 0 || p50 != 0 {
		t.Fatal("nil instruments recorded something")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatal("nil registry produced a non-empty snapshot")
	}
}

func TestNameLabels(t *testing.T) {
	cases := []struct {
		base string
		kv   []string
		want string
	}{
		{"plain", nil, "plain"},
		{"m", []string{"node", "node-01"}, `m{node="node-01"}`},
		{"m", []string{"b", "2", "a", "1"}, `m{a="1",b="2"}`},
	}
	for _, tc := range cases {
		if got := Name(tc.base, tc.kv...); got != tc.want {
			t.Errorf("Name(%q, %v) = %q, want %q", tc.base, tc.kv, got, tc.want)
		}
	}
}

func TestRegistryReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("counter identity")
	}
	if r.Gauge("a") != r.Gauge("a") {
		t.Error("gauge identity")
	}
	if r.Histogram("a") != r.Histogram("a") {
		t.Error("histogram identity")
	}
}

// histCount returns h's observation count as the sampler reads it.
func histCount(h *Histogram) uint64 {
	n, _, _ := h.Summary()
	return n
}

// Registering thousands of names in shuffled order grows the index many
// times over: every name still resolves to its one instrument, the
// creation-order list keeps creation order, and the export walks names
// in sorted order — also after names arrive between two exports.
func TestRegistryIndexGrows(t *testing.T) {
	reg := NewRegistry()
	const n = 5000
	names := make([]string, n)
	for i, j := range rand.New(rand.NewSource(1)).Perm(n) {
		names[i] = Name("grow_total", "id", strconv.Itoa(j))
	}
	made := make([]*Counter, n)
	for i, name := range names {
		made[i] = reg.Counter(name)
		made[i].Add(int64(i))
		if i == n/2 {
			checkSorted(t, reg.Snapshot(), i+1)
		}
	}
	for i, name := range names {
		if reg.Counter(name) != made[i] {
			t.Fatalf("%s resolves to a second instrument", name)
		}
	}
	if cs, _, _ := reg.Instruments(); len(cs) != n || cs[0] != made[0] || cs[n-1] != made[n-1] {
		t.Fatalf("Instruments lists %d counters, not the %d created in order", len(cs), n)
	}
	checkSorted(t, reg.Snapshot(), n)
}

func checkSorted(t *testing.T, snap Snapshot, n int) {
	t.Helper()
	if len(snap.Counters) != n {
		t.Fatalf("snapshot has %d counters, want %d", len(snap.Counters), n)
	}
	for i := 1; i < n; i++ {
		if snap.Counters[i-1].Name >= snap.Counters[i].Name {
			t.Fatalf("snapshot out of name order at %d: %s, %s", i, snap.Counters[i-1].Name, snap.Counters[i].Name)
		}
	}
}
