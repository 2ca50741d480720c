package events

import (
	"bytes"
	"testing"
)

// Without a guard, ring pressure evicts the ring's oldest event even
// when it belongs to a trace that is still open — the PR 6 caveat.
func TestEvictionWithoutGuardDropsOpenTrace(t *testing.T) {
	j := NewJournal(8)
	sc := j.NewScope("core", "invoke", 0)
	root := sc.TraceID()
	for i := 0; i < 20; i++ {
		j.Instant("noise", "tick", 0)
	}
	if got := len(j.Trace(root)); got != 0 {
		t.Fatalf("expected the open trace's begin to be evicted without a guard, still have %d events", got)
	}
	if j.Dropped() == 0 {
		t.Fatal("expected overflow drops to be counted")
	}
}

// With an eviction guard — the regression fix — a full ring evicts
// the oldest unguarded event, so an open trace keeps its spans under
// ring pressure.
func TestEvictionGuardProtectsOpenTrace(t *testing.T) {
	j := NewJournal(8)
	sc := j.NewScope("core", "invoke", 0)
	root := sc.TraceID()
	j.SetEvictionGuard(func(id TraceID) bool { return id == root })
	sc.Begin("vmm", "restore", 1)
	for i := 0; i < 40; i++ {
		j.Instant("noise", "tick", 0)
	}
	tr := j.Trace(root)
	if len(tr) != 2 {
		t.Fatalf("guarded trace lost events under ring pressure: have %d, want 2", len(tr))
	}
	if tr[0].Kind != KindBegin || tr[0].Component != "core" {
		t.Fatalf("root begin not preserved: %+v", tr[0])
	}
	// Noise instants were evicted instead, and counted.
	if j.Dropped() == 0 {
		t.Fatal("expected unguarded events to be evicted")
	}
	// Once the guard stops protecting the trace, eviction reaches it
	// again (no permanent pinning).
	j.SetEvictionGuard(func(TraceID) bool { return false })
	for i := 0; i < 20; i++ {
		j.Instant("noise", "tick", 0)
	}
	if got := len(j.Trace(root)); got != 0 {
		t.Fatalf("unguarded trace should be evictable again, still have %d events", got)
	}
}

// When every resident event is guarded, eviction falls back to plain
// oldest-first: bounded memory wins over retention.
func TestEvictionGuardFullRingFallsBack(t *testing.T) {
	j := NewJournal(4)
	j.SetEvictionGuard(func(TraceID) bool { return true })
	sc := j.NewScope("core", "invoke", 0)
	for i := 0; i < 10; i++ {
		sc.Instant("core", "mark", 0)
	}
	if j.Len() != 4 {
		t.Fatalf("ring should stay at capacity, have %d", j.Len())
	}
	if j.Dropped() != 10-3 {
		t.Fatalf("dropped = %d, want %d", j.Dropped(), 10-3)
	}
}

func TestDropTraceRemovesEventsAndCountsBytes(t *testing.T) {
	j := NewJournal(64)
	keepSc := j.NewScope("core", "keep", 0)
	keepSc.Instant("core", "mark", 1)
	keepSc.Close(2)
	dropSc := j.NewScope("core", "drop", 0)
	dropSc.Instant("core", "mark", 1)
	dropSc.Close(2)

	var want int64
	doomed := j.Trace(dropSc.TraceID())
	for _, e := range doomed {
		want += int64(EncodedSize(e))
	}
	removed, bytesDropped := j.DropTrace(dropSc.TraceID(), doomed[0].Seq)
	if removed != 3 {
		t.Fatalf("removed = %d, want 3", removed)
	}
	if bytesDropped != want || bytesDropped == 0 {
		t.Fatalf("bytes = %d, want %d (nonzero)", bytesDropped, want)
	}
	if len(j.Trace(dropSc.TraceID())) != 0 {
		t.Fatal("dropped trace still resident")
	}
	if got := len(j.Trace(keepSc.TraceID())); got != 3 {
		t.Fatalf("kept trace disturbed: %d events, want 3", got)
	}
	// The exports see only survivors.
	var nd bytes.Buffer
	if err := WriteNDJSON(&nd, j.Events()); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(nd.Bytes(), []byte(`"name":"drop"`)) {
		t.Fatal("dropped trace leaked into NDJSON export")
	}
	// Dropped() counts ring overflow, not sampler drops.
	if j.Dropped() != 0 {
		t.Fatalf("DropTrace must not count as overflow drops, got %d", j.Dropped())
	}
}

type recordingObserver struct{ seen []Event }

func (r *recordingObserver) ObserveEvent(e Event) { r.seen = append(r.seen, e) }

func TestObserverSeesEveryAppend(t *testing.T) {
	j := NewJournal(0)
	obs := &recordingObserver{}
	j.SetObserver(obs)
	sc := j.NewScope("core", "invoke", 0)
	sc.Instant("core", "mark", 1)
	sc.Close(2)
	j.Instant("slo", "alert", 3)
	if len(obs.seen) != 4 {
		t.Fatalf("observer saw %d events, want 4", len(obs.seen))
	}
	if obs.seen[0].Kind != KindBegin || obs.seen[0].Seq != 1 {
		t.Fatalf("first observed event wrong: %+v", obs.seen[0])
	}
	j.SetObserver(nil)
	j.Instant("slo", "alert", 4)
	if len(obs.seen) != 4 {
		t.Fatal("detached observer still saw events")
	}
}
