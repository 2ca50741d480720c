package events_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/platform"
	rt "repro/internal/runtime"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// replaySeed/replayRate pin a fault schedule that exercises retries and
// at least one cluster failover across the run (the schedule is
// deterministic, so the assertions below are stable). The restore site
// is made latency-heavy so spiked attempts blow the retry budget and
// surface as transient errors the cluster fails over; node crashes are
// disabled so the fleet never goes fully down.
const (
	replaySeed        = 7
	replayRate        = 0.05
	replayInvocations = 30
)

// runSeeded drives a seeded faulted workload through the full stack —
// gateway scope, cluster placement, core pipeline — exactly as fwsim
// does, and returns the journal's NDJSON dump plus the cluster and the
// per-request trace ids. It records into journal (the cluster's default
// when nil), with tail armed on it when non-nil.
func runSeeded(t *testing.T, journal *events.Journal, tail *telemetry.TailSampler) ([]byte, *cluster.Cluster, []events.TraceID) {
	t.Helper()
	plane := faults.NewPlane(replaySeed)
	c := cluster.New(3, cluster.LeastInflight, platform.EnvConfig{Faults: plane, Events: journal},
		func(env *platform.Env) platform.Platform {
			return core.New(env, core.Options{Retry: faults.DefaultRetryPolicy()})
		})
	tail.Attach(c.Journal(), c.Metrics())
	c.SetFailover(cluster.FailoverPolicy{MaxFailovers: 2})
	wl := workloads.NetLatency(rt.LangNode)
	if err := c.Install(wl.Function); err != nil {
		t.Fatal(err)
	}
	plane.ApplyDefaultPlan(replayRate)
	plane.SetProfile(faults.SiteVMMRestore, faults.Profile{ErrorRate: 0.1, LatencyRate: 0.4})
	plane.SetProfile(faults.SiteClusterNode, faults.Profile{})
	params := platform.MustParams(nil)
	traces := make([]events.TraceID, 0, replayInvocations)
	for i := 0; i < replayInvocations; i++ {
		sc := c.Journal().NewScope("gateway", "POST /invoke", 0,
			events.A("function", wl.Name))
		// Cold starts keep every request on the snapshot-restore path,
		// where the seeded schedule injects its spikes.
		inv, _, err := c.Invoke(wl.Name, params,
			platform.InvokeOptions{Mode: platform.ModeCold, Trace: sc})
		var end time.Duration
		if inv != nil {
			end = inv.Clock.Now()
		}
		if err != nil {
			sc.Close(end, events.A("error", err.Error()))
		} else {
			sc.Close(end)
		}
		traces = append(traces, sc.TraceID())
	}
	var buf bytes.Buffer
	if err := events.WriteNDJSON(&buf, c.Journal().Events()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), c, traces
}

// TestReplayDeterminism is the tentpole's acceptance bar: two runs with
// the same seed produce byte-identical NDJSON journal dumps.
func TestReplayDeterminism(t *testing.T) {
	first, _, _ := runSeeded(t, nil, nil)
	second, _, _ := runSeeded(t, nil, nil)
	if !bytes.Equal(first, second) {
		a, b := string(first), string(second)
		max := 400
		if len(a) > max {
			a = a[:max]
		}
		if len(b) > max {
			b = b[:max]
		}
		t.Fatalf("same-seed journal dumps diverge:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestReplayDeterminismUnderOverflowAndSampling pins the same bar where
// the ring does the most to the journal: a ring a fraction of the run's
// size evicts on most appends while a tail sampler drops finished
// traces out of the middle of it. Two same-seed runs must still export
// byte-identical NDJSON and Chrome JSON.
func TestReplayDeterminismUnderOverflowAndSampling(t *testing.T) {
	run := func() (ndjson, chrome []byte) {
		j := events.NewJournal(256)
		tail := telemetry.New(telemetry.Config{Seed: 3, KeepRate: 0.3})
		ndjson, _, _ = runSeeded(t, j, tail)
		if st := tail.Stats(); j.Dropped() == 0 || st.DroppedTraces == 0 || st.KeptTraces == 0 {
			t.Fatalf("weak scenario: %d evictions, sampler %+v", j.Dropped(), st)
		}
		var buf bytes.Buffer
		if err := events.WriteFormat(&buf, j.Events(), "chrome"); err != nil {
			t.Fatal(err)
		}
		return ndjson, buf.Bytes()
	}
	nd1, ch1 := run()
	nd2, ch2 := run()
	if len(nd1) == 0 || !bytes.Equal(nd1, nd2) {
		t.Errorf("same-seed NDJSON dumps diverge (%d vs %d bytes)", len(nd1), len(nd2))
	}
	if !bytes.Equal(ch1, ch2) {
		t.Errorf("same-seed Chrome traces diverge (%d vs %d bytes)", len(ch1), len(ch2))
	}
}

// TestSingleTraceSpansStack verifies one request's trace reaches every
// layer: the gateway root, cluster placement, the core pipeline, a
// causally linked msgbus produce→consume pair, a vmm start (restore or
// warm resume), and the exec span.
func TestSingleTraceSpansStack(t *testing.T) {
	_, c, traces := runSeeded(t, nil, nil)
	j := c.Journal()

	// Find a successful trace (has an exec span); the faulted schedule
	// leaves most requests healthy.
	var evs []events.Event
	for _, id := range traces {
		te := j.Trace(id)
		for _, e := range te {
			if e.Component == "core" && e.Name == "exec" {
				evs = te
				break
			}
		}
		if evs != nil {
			break
		}
	}
	if evs == nil {
		t.Fatal("no successful trace in the run")
	}

	has := func(component, name string) bool {
		for _, e := range evs {
			if e.Component == component && e.Name == name {
				return true
			}
		}
		return false
	}
	for _, want := range [][2]string{
		{"gateway", "POST /invoke"},
		{"cluster", "request"},
		{"cluster", "place"},
		{"core", "invoke"},
		{"core", "exec"},
		{"msgbus", "produce"},
		{"msgbus", "consume"},
	} {
		if !has(want[0], want[1]) {
			t.Errorf("trace missing %s:%s", want[0], want[1])
		}
	}
	// Every Fireworks start is a snapshot restore.
	if !has("vmm", "restore") {
		t.Error("trace has no vmm restore")
	}

	// The consume is causally linked to the produce that fed it, and
	// the link resolves inside the same trace.
	linked := false
	for _, e := range evs {
		if e.Component == "msgbus" && e.Name == "consume" {
			if e.Link.IsZero() {
				t.Error("consume event has no causal link")
				continue
			}
			for _, p := range j.Trace(e.Link.Trace) {
				if p.Span == e.Link.Span && p.Component == "msgbus" && p.Name == "produce" {
					linked = true
				}
			}
		}
	}
	if !linked {
		t.Error("no consume links back to a produce event")
	}
}

// TestFailoverLinksReplacement verifies that when the seeded schedule
// forces a failover, the failover instant links back to the failed
// placement attempt in the same trace.
func TestFailoverLinksReplacement(t *testing.T) {
	_, c, _ := runSeeded(t, nil, nil)
	if c.Metrics().Counter("failovers_total").Value() == 0 {
		t.Fatalf("seed %d injected no failovers; pick a stormier schedule", replaySeed)
	}
	j := c.Journal()
	found := false
	for _, e := range j.Events() {
		if e.Component != "cluster" || e.Name != "failover" {
			continue
		}
		found = true
		if e.Link.IsZero() {
			t.Fatal("failover event has no causal link")
		}
		resolved := false
		for _, p := range j.Trace(e.Link.Trace) {
			if p.Span == e.Link.Span && p.Component == "cluster" && p.Name == "place" {
				resolved = true
			}
		}
		if !resolved {
			t.Fatal("failover link does not resolve to a placement event")
		}
		if e.Link.Trace != e.Trace {
			t.Fatal("failover links outside its own trace")
		}
	}
	if !found {
		t.Fatal("failovers counted but no failover event recorded")
	}
}
