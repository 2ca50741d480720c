package telemetry

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/vclock"
)

func newArmed(t *testing.T, cfg Config) (*TailSampler, *events.Journal, *metrics.Registry) {
	t.Helper()
	j := events.NewJournal(1 << 12)
	reg := metrics.NewRegistry()
	ts := New(cfg)
	ts.Attach(j, reg)
	return ts, j, reg
}

// closeTrace runs one whole trace: root begin at t0, root end at t1.
func closeTrace(j *events.Journal, t0, t1 time.Duration, attrs ...events.Attr) events.TraceID {
	sc := j.NewScope("core", "invoke", t0)
	sc.Close(t1, attrs...)
	return sc.TraceID()
}

func TestErrorTraceAlwaysKept(t *testing.T) {
	ts, j, reg := newArmed(t, Config{Seed: 1, KeepRate: -1})
	id := closeTrace(j, 0, time.Millisecond, events.A("error", "boom"))
	if len(j.Trace(id)) == 0 {
		t.Fatal("errored trace was dropped")
	}
	if got := reg.Counter(metrics.Name("telemetry_traces_total", "decision", "keep", "policy", PolicyError)).Value(); got != 1 {
		t.Fatalf("keep{error} = %d, want 1", got)
	}
	st := ts.Stats()
	if st.KeptTraces != 1 || st.DroppedTraces != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFaultTraceAlwaysKept(t *testing.T) {
	_, j, _ := newArmed(t, Config{Seed: 1, KeepRate: -1})
	sc := j.NewScope("core", "invoke", 0)
	sc.Instant("faults", "vmm-restore", 1, events.A("kind", "latency"))
	sc.Close(time.Millisecond)
	if len(j.Trace(sc.TraceID())) == 0 {
		t.Fatal("faulted trace was dropped")
	}
}

func TestDLQTraceAlwaysKept(t *testing.T) {
	_, j, reg := newArmed(t, Config{Seed: 1, KeepRate: -1})
	sc := j.NewScope("workflow", "run", 0)
	sc.Instant("workflow", "step-dead", 1, events.A("step", "parse"))
	sc.Close(time.Millisecond)
	if len(j.Trace(sc.TraceID())) == 0 {
		t.Fatal("DLQ trace was dropped")
	}
	if got := reg.Counter(metrics.Name("telemetry_traces_total", "decision", "keep", "policy", PolicyDLQ)).Value(); got != 1 {
		t.Fatalf("keep{dlq} = %d, want 1", got)
	}
}

func TestBoringTracesDropPhysically(t *testing.T) {
	ts, j, reg := newArmed(t, Config{Seed: 7, KeepRate: -1})
	var ids []events.TraceID
	for i := 0; i < 20; i++ {
		ids = append(ids, closeTrace(j, 0, time.Millisecond))
	}
	for _, id := range ids {
		if len(j.Trace(id)) != 0 {
			t.Fatalf("boring trace %d survived KeepRate=0", id)
		}
	}
	st := ts.Stats()
	if st.DroppedTraces != 20 || st.DroppedEvents != 40 || st.DroppedBytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	dropped := reg.Counter(metrics.Name("telemetry_traces_total", "decision", "drop", "policy", PolicyProbabilistic)).Value()
	if dropped != 20 {
		t.Fatalf("drop{probabilistic} = %d, want 20", dropped)
	}
	bytesC := reg.Counter(metrics.Name("telemetry_dropped_bytes_total", "policy", PolicyProbabilistic)).Value()
	if bytesC != st.DroppedBytes {
		t.Fatalf("dropped bytes counter %d != stats %d", bytesC, st.DroppedBytes)
	}
}

func TestProbabilisticKeepIsSeededAndOrderFree(t *testing.T) {
	run := func(seed uint64) map[int]bool {
		_, j, _ := newArmed(t, Config{Seed: seed, KeepRate: 0.3})
		kept := map[int]bool{}
		for i := 0; i < 200; i++ {
			id := closeTrace(j, 0, time.Millisecond)
			kept[i] = len(j.Trace(id)) > 0
		}
		return kept
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at trace %d", i)
		}
	}
	c := run(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced the identical keep set")
	}
	keptCount := 0
	for _, k := range a {
		if k {
			keptCount++
		}
	}
	// 30% keep rate over 200 traces: a loose band catches a broken hash.
	if keptCount < 30 || keptCount > 110 {
		t.Fatalf("kept %d of 200 at rate 0.3", keptCount)
	}
}

func TestLatencyOutlierKept(t *testing.T) {
	cfg := Config{Seed: 1, KeepRate: -1}
	_, j, reg := newArmed(t, cfg)
	// Arm the site threshold with uniform 1ms roots.
	for i := 0; i < minSiteSamples; i++ {
		closeTrace(j, 0, time.Millisecond)
	}
	slow := closeTrace(j, 0, 100*time.Millisecond)
	if len(j.Trace(slow)) == 0 {
		t.Fatal("latency outlier was dropped")
	}
	if got := reg.Counter(metrics.Name("telemetry_traces_total", "decision", "keep", "policy", PolicyLatency)).Value(); got != 1 {
		t.Fatalf("keep{latency} = %d, want 1", got)
	}
	// An unarmed site (too few samples) must not flag outliers.
	sc := j.NewScope("gateway", "request", 0)
	sc.Close(time.Second)
	if len(j.Trace(sc.TraceID())) != 0 {
		t.Fatal("unarmed site flagged a latency outlier")
	}
}

func TestAlertPromotesPendingTrace(t *testing.T) {
	_, j, reg := newArmed(t, Config{Seed: 1, KeepRate: -1})
	sc := j.NewScope("core", "invoke", 0)
	// Watchdog names the still-open trace as alert evidence.
	evidence := sc.Instant("core", "mark", 0)
	j.InstantLinked("slo", "alert", time.Millisecond, evidence, events.A("rule", "p99"))
	sc.Close(2 * time.Millisecond)
	if len(j.Trace(sc.TraceID())) == 0 {
		t.Fatal("alert-linked trace was dropped")
	}
	if got := reg.Counter(metrics.Name("telemetry_traces_total", "decision", "keep", "policy", PolicyError)).Value(); got != 1 {
		t.Fatalf("keep{error} = %d, want 1", got)
	}
}

func TestTimeoutFlushDecidesStalledTraces(t *testing.T) {
	ts, j, _ := newArmed(t, Config{Seed: 1, KeepRate: -1})
	sc := j.NewScope("core", "invoke", 0)
	sc.Instant("core", "mark", time.Millisecond) // never closes its root
	stalled := sc.TraceID()
	ts.Flush(stallTimeout / 2)
	if st := ts.Stats(); st.PendingTraces != 1 {
		t.Fatalf("flushed too early: %+v", st)
	}
	ts.Flush(2 * stallTimeout)
	st := ts.Stats()
	if st.PendingTraces != 0 || st.DroppedTraces != 1 {
		t.Fatalf("timeout flush: %+v", st)
	}
	if len(j.Trace(stalled)) != 0 {
		t.Fatal("timed-out boring trace still resident")
	}
	// A stalled trace with an error still lands on the error policy.
	sc2 := j.NewScope("core", "invoke", 3*stallTimeout)
	sc2.Instant("core", "mark", 3*stallTimeout, events.A("error", "lost"))
	ts.Flush(time.Hour)
	if len(j.Trace(sc2.TraceID())) == 0 {
		t.Fatal("timed-out errored trace was dropped")
	}
}

func TestFlushAllDrains(t *testing.T) {
	ts, j, _ := newArmed(t, Config{Seed: 1, KeepRate: -1})
	for i := 0; i < 5; i++ {
		sc := j.NewScope("core", "invoke", 0)
		sc.Instant("core", "mark", 1)
		_ = sc // roots stay open
	}
	ts.FlushAll()
	if st := ts.Stats(); st.PendingTraces != 0 || st.DecidedTraces != 5 {
		t.Fatalf("FlushAll: %+v", st)
	}
}

// The acceptance property: the sampled export is a pure function of
// (workload, seed), and a drop — which looks for the trace only from its
// first Seq on — takes the whole trace or none of it.
func TestSampledExportIsDeterministic(t *testing.T) {
	dump := func() []byte {
		ts, j, _ := newArmed(t, Config{Seed: 99, KeepRate: 0.2})
		for i := 0; i < 100; i++ {
			sc := j.NewScope("core", "invoke", 0)
			sc.SetNode([]string{"node-01", "node-02", "node-03"}[i%3])
			sc.Begin("vmm", "restore", time.Microsecond)
			if i%17 == 0 {
				sc.Instant("faults", "vmm-restore", 2*time.Microsecond, events.A("kind", "error"))
			}
			sc.End(3 * time.Microsecond)
			sc.Close(time.Duration(i%7+1) * time.Millisecond)
		}
		ts.FlushAll()
		perTrace := map[events.TraceID]int{}
		for _, e := range j.Events() {
			perTrace[e.Trace]++
		}
		for id, n := range perTrace {
			if n < 4 {
				t.Fatalf("trace %d is resident with %d of its events: a drop left orphans", id, n)
			}
		}
		if st := ts.Stats(); st.DroppedTraces == 0 || len(perTrace) == 0 || len(perTrace)+int(st.DroppedTraces) != 100 {
			t.Fatalf("weak scenario: %d traces resident, stats %+v", len(perTrace), st)
		}
		var buf bytes.Buffer
		if err := events.WriteNDJSON(&buf, j.Events()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first, second := dump(), dump()
	if !bytes.Equal(first, second) {
		t.Fatalf("same-seed sampled NDJSON differs: %d vs %d bytes", len(first), len(second))
	}
}

// A trace already under way when the sampler attaches has events the
// sampler never saw: its drop must search the whole ring, not start at
// the first event observed.
func TestTraceSeenMidFlightDropsWhole(t *testing.T) {
	j := events.NewJournal(64)
	sc := j.NewScope("core", "invoke", 0)
	sc.Begin("vmm", "restore", 1)
	ts := New(Config{Seed: 1, KeepRate: -1})
	ts.Attach(j, nil)
	sc.Close(time.Millisecond)
	ts.FlushAll()
	if st := ts.Stats(); st.DroppedTraces != 1 || st.DroppedEvents != 4 {
		t.Fatalf("stats = %+v, want the trace's 4 events dropped", st)
	}
	if left := j.Trace(sc.TraceID()); len(left) != 0 {
		t.Fatalf("%d events from before the attach survived the drop", len(left))
	}
}

// Under ring pressure the armed sampler's eviction guard protects
// pending traces; decided traces are evicted first.
func TestArmedSamplerGuardsPendingTraces(t *testing.T) {
	j := events.NewJournal(16)
	ts := New(Config{Seed: 1, KeepRate: 1}) // keep everything: isolate eviction behavior
	ts.Attach(j, nil)
	open := j.NewScope("core", "invoke", 0)
	open.Begin("vmm", "restore", 1)
	for i := 0; i < 30; i++ {
		closeTrace(j, 0, time.Millisecond) // decided (kept) traces fill the ring
	}
	if got := len(j.Trace(open.TraceID())); got != 2 {
		t.Fatalf("pending trace lost events under pressure: %d, want 2", got)
	}
}

// TestConcurrentTracesUnderRingPressure appends traces from several
// goroutines into a 64-slot ring while the sampler decides them, every
// tenth left open until the final drain. The eviction guard takes the
// sampler's lock under the journal's, so any path holding the sampler's
// lock while taking the journal's would deadlock here; run it with
// -race.
func TestConcurrentTracesUnderRingPressure(t *testing.T) {
	const goroutines, perG = 4, 400
	j := events.NewJournal(64)
	ts := New(Config{Seed: 1, KeepRate: 0.5})
	ts.Attach(j, nil)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				at := time.Duration(i) * time.Millisecond
				sc := j.NewScope("core", "invoke", at)
				sc.Begin("vmm", "restore", at)
				sc.End(at + time.Microsecond)
				if i%10 != 0 {
					sc.Close(at + time.Millisecond)
				}
				if i%50 == 0 {
					ts.Flush(at)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("appenders still running after a minute: deadlock")
	}
	ts.FlushAll()
	if st := ts.Stats(); st.DecidedTraces != goroutines*perG || st.PendingTraces != 0 {
		t.Fatalf("stats = %+v, want all %d traces decided", st, goroutines*perG)
	}
}

func TestNilSampler(t *testing.T) {
	var ts *TailSampler
	ts.ObserveEvent(events.Event{})
	ts.Flush(0)
	ts.FlushAll()
	_ = ts.Stats()
}

// TestSiteRingQuantileMatchesSort feeds a ring seeded latencies, with
// repeats and past the window's wrap, and compares every threshold with
// nearest-rank over a sorted copy of the values the ring holds.
func TestSiteRingQuantileMatchesSort(t *testing.T) {
	rng := vclock.NewRand(11)
	ring := &siteRing{buf: make([]time.Duration, siteWindow)}
	var window []time.Duration
	for i := 0; i < 3*siteWindow+17; i++ {
		d := time.Duration(rng.Intn(400)) * time.Microsecond // repeats are common
		ring.push(d)
		if window = append(window, d); len(window) > siteWindow {
			window = window[1:]
		}
		sorted := slices.Clone(window)
		slices.Sort(sorted)
		for _, q := range []float64{0, 50, 90, latencyQuantile, 100} {
			idx := min(int(float64(len(sorted)-1)*q/100+0.5), len(sorted)-1)
			if got := ring.quantile(q); got != sorted[idx] {
				t.Fatalf("push %d: p%v = %v, sort says %v", i, q, got, sorted[idx])
			}
		}
	}
}
