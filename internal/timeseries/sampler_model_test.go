package timeseries

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// refSampler is the sampler as a specification: every Sample takes a
// whole registry Snapshot and records each exported instrument under
// its name, exactly as the sampler did before it bound instruments.
// It keeps every point (the model runs stay far below a ring's
// capacity).
type refSampler struct {
	reg     *metrics.Registry
	keep    func(string) bool
	probes  []probe
	series  map[string][]Point
	samples *metrics.Counter
}

func newRefSampler(reg *metrics.Registry) *refSampler {
	return &refSampler{reg: reg, series: map[string][]Point{},
		samples: reg.Counter("timeseries_samples_total")}
}

func (r *refSampler) Sample(now time.Duration) {
	r.samples.Inc()
	snap := r.reg.Snapshot()
	record := func(name string, v float64) {
		if r.keep == nil || r.keep(name) {
			r.series[name] = append(r.series[name], Point{now, v})
		}
	}
	for _, c := range snap.Counters {
		record(c.Name, float64(c.Value))
	}
	for _, g := range snap.Gauges {
		record(g.Name, float64(g.Value))
	}
	for _, h := range snap.Histograms {
		record(h.Name+".count", float64(h.Count))
		record(h.Name+".p50", h.P50)
		record(h.Name+".p99", h.P99)
	}
	for _, p := range r.probes {
		if v, ok := runProbe(p.fn); ok {
			r.series[p.name] = append(r.series[p.name], Point{now, v})
		} else {
			r.reg.Counter(metrics.Name("timeseries_probe_errors_total", "probe", p.name)).Inc()
		}
	}
}

func (r *refSampler) Snapshot() []SeriesSnapshot {
	out := make([]SeriesSnapshot, 0, len(r.series))
	for name, pts := range r.series {
		out = append(out, SeriesSnapshot{Name: name, Points: pts})
	}
	slices.SortFunc(out, func(a, b SeriesSnapshot) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// modelSide is one registry with its sampler; the model drives two
// sides, the Sampler and the reference, with the same operations.
type modelSide struct {
	reg    *metrics.Registry
	sample func(time.Duration)
	snap   func() []SeriesSnapshot
}

// TestSamplerMatchesSnapshotModel runs seeded random sequences of
// instrument creates (labelled names past a cardinality budget
// included), observations, probes that panic or return NaN, and
// samples against the Sampler and the Snapshot-built reference, each
// on its own registry, and requires identical series — names and
// points — after every step, and identical registries at the end.
func TestSamplerMatchesSnapshotModel(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 8 // the race run
	}
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { runSamplerModel(t, seed) })
	}
}

func runSamplerModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var keep func(string) bool
	if seed%2 == 0 {
		// Drop one family whole and one derived series of every
		// histogram, so partial and empty bindings both occur.
		keep = func(name string) bool {
			return !strings.HasPrefix(name, "fam_c") && !strings.HasSuffix(name, ".p50")
		}
	}
	limit := rng.Intn(4) // 0: unbounded
	newSide := func(real bool) *modelSide {
		reg := metrics.NewRegistry()
		reg.SetCardinalityLimit(limit)
		var calls int
		probes := []struct {
			name string
			fn   func() float64
		}{
			// Reading through the registry creates the instrument during
			// the first Sample: it is bound from the next one on.
			{"probe_reads", func() float64 { return float64(reg.Counter("probe_read_total").Value()) }},
			{"probe_panics", func() float64 {
				if calls++; calls%3 == 0 {
					panic("probe broke")
				}
				return 1
			}},
			{"probe_nan", func() float64 {
				if calls%2 == 0 {
					return math.NaN()
				}
				return 2
			}},
		}
		if real {
			s := NewSampler(reg, 0)
			if keep != nil {
				s.SetFilter(keep)
			}
			for _, p := range probes {
				s.AddProbe(p.name, p.fn)
			}
			return &modelSide{reg, s.Sample, s.Snapshot}
		}
		r := newRefSampler(reg)
		r.keep = keep
		for _, p := range probes {
			r.probes = append(r.probes, probe{name: p.name, fn: p.fn})
		}
		return &modelSide{reg, r.Sample, r.Snapshot}
	}
	sides := [2]*modelSide{newSide(true), newSide(false)}

	// name picks an instrument of one of three families, unlabelled or
	// with one of six label values: past a budget the family redirects.
	name := func(kind string) string {
		fam := []string{"fam_a", "fam_b", "fam_c"}[rng.Intn(3)] + kind
		if rng.Intn(4) == 0 {
			return fam
		}
		return metrics.Name(fam, "node", fmt.Sprint(rng.Intn(6)))
	}
	now := time.Duration(0)
	for step := 0; step < 300; step++ {
		op := rng.Intn(10)
		c, g, h := name("_total"), name("_depth"), name("_seconds")
		v, f := rng.Int63n(1000), float64(rng.Intn(5000))*1.5
		for _, sd := range sides {
			switch op {
			case 0, 1:
				sd.reg.Counter(c).Add(v)
			case 2, 3:
				sd.reg.Gauge(g).Set(v - 500)
			case 4, 5:
				sd.reg.Histogram(h).Observe(f)
			case 6:
				sd.reg.Histogram(h).ObserveExemplar(f, uint64(v+1), now)
			case 7:
				sd.reg.Counter("probe_read_total").Inc()
			default:
				sd.sample(now)
			}
		}
		if op >= 8 && rng.Intn(4) > 0 {
			now += time.Millisecond // else the next sample repeats the instant
		}
		if got, want := sides[0].snap(), sides[1].snap(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (op %d): sampler and reference diverge\n%s", step, op, seriesDiff(got, want))
		}
	}
	if got, want := sides[0].reg.Snapshot(), sides[1].reg.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("registries diverge:\n sampler side   %+v\n reference side %+v", got, want)
	}
}

// seriesDiff names the first series whose name or points differ.
func seriesDiff(got, want []SeriesSnapshot) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			return fmt.Sprintf("missing series %q", want[i].Name)
		case i >= len(want):
			return fmt.Sprintf("extra series %q", got[i].Name)
		case got[i].Name != want[i].Name:
			return fmt.Sprintf("series %q where the reference has %q", got[i].Name, want[i].Name)
		case !reflect.DeepEqual(got[i].Points, want[i].Points):
			return fmt.Sprintf("series %q: points %v, want %v", got[i].Name, got[i].Points, want[i].Points)
		}
	}
	return "no difference"
}

// TestSamplerConcurrentCreates has goroutines create and record
// instruments while another samples and a third exports registry
// snapshots. Under -race this is the sampler's and the registry's
// publication check: every instrument ends with a series, no Sample
// gives a series two points, and every Snapshot is sorted.
func TestSamplerConcurrentCreates(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewSampler(reg, 0)
	const writers, perWriter = 4, 200

	var wg sync.WaitGroup
	stop := make(chan struct{})
	done := make(chan struct{}, 2)
	go func() { // sampler: one distinct instant per Sample
		for i := 1; ; i++ {
			select {
			case <-stop:
				done <- struct{}{}
				return
			default:
				s.Sample(time.Duration(i))
			}
		}
	}()
	go func() { // exporter
		for {
			select {
			case <-stop:
				done <- struct{}{}
				return
			default:
				snap := reg.Snapshot()
				if !slices.IsSortedFunc(snap.Counters, func(a, b metrics.CounterSnapshot) int { return strings.Compare(a.Name, b.Name) }) ||
					!slices.IsSortedFunc(snap.Gauges, func(a, b metrics.GaugeSnapshot) int { return strings.Compare(a.Name, b.Name) }) ||
					!slices.IsSortedFunc(snap.Histograms, func(a, b metrics.HistSnapshot) int { return strings.Compare(a.Name, b.Name) }) {
					t.Error("registry snapshot not sorted by name")
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				node := fmt.Sprint(w, "-", i%50)
				reg.Counter(metrics.Name("race_total", "node", node)).Inc()
				reg.Gauge(metrics.Name("race_depth", "node", node)).Set(int64(i))
				reg.Histogram(metrics.Name("race_seconds", "node", node)).Observe(float64(i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-done
	<-done
	s.Sample(time.Hour) // binds whatever the last concurrent Sample missed

	names := map[string]bool{}
	for _, sr := range s.Snapshot() {
		names[sr.Name] = true
		for i := 1; i < len(sr.Points); i++ {
			if sr.Points[i].TS <= sr.Points[i-1].TS {
				t.Fatalf("series %s has two points at or out of order with %v", sr.Name, sr.Points[i].TS)
			}
		}
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < 50; i++ {
			node := fmt.Sprint(w, "-", i)
			for _, want := range []string{
				metrics.Name("race_total", "node", node),
				metrics.Name("race_depth", "node", node),
				metrics.Name("race_seconds", "node", node) + ".count",
				metrics.Name("race_seconds", "node", node) + ".p99",
			} {
				if !names[want] {
					t.Fatalf("instrument %s has no series", want)
				}
			}
		}
	}
}
