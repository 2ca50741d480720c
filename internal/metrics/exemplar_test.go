package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func TestObserveExemplarCapturesPerBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	h.ObserveDurationExemplar(50*time.Microsecond, 11, 1*time.Second)
	h.ObserveDurationExemplar(2*time.Second, 22, 2*time.Second)

	exs := h.exemplars
	if exs == nil {
		t.Fatal("Exemplars() = nil after captures")
	}
	if got := len(exs); got != len(DefaultLatencyBuckets())+1 {
		t.Fatalf("exemplar slots = %d, want %d", got, len(DefaultLatencyBuckets())+1)
	}
	if exs[0].Trace != 11 || exs[0].Value != float64(50*time.Microsecond) {
		t.Errorf("bucket 0 exemplar = %+v, want trace 11", exs[0])
	}
	var found *Exemplar
	for i := range exs {
		if exs[i].Trace == 22 {
			found = &exs[i]
		}
	}
	if found == nil {
		t.Fatal("no exemplar captured for trace 22")
	}
	if found.TS != 2*time.Second {
		t.Errorf("trace 22 exemplar TS = %v, want 2s", found.TS)
	}
}

func TestObserveExemplarLastWriterWins(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	h.ObserveDurationExemplar(50*time.Microsecond, 1, 5*time.Second)
	// Earlier virtual time must not displace the resident exemplar.
	h.ObserveDurationExemplar(60*time.Microsecond, 2, 1*time.Second)
	if ex := h.exemplars[0]; ex.Trace != 1 {
		t.Errorf("earlier-TS observation displaced exemplar: %+v", ex)
	}
	// Equal virtual time: the later call wins (deterministic tie-break
	// for sequential same-tick observations).
	h.ObserveDurationExemplar(70*time.Microsecond, 3, 5*time.Second)
	if ex := h.exemplars[0]; ex.Trace != 3 {
		t.Errorf("same-TS later observation did not win: %+v", ex)
	}
	// Later virtual time replaces.
	h.ObserveDurationExemplar(80*time.Microsecond, 4, 6*time.Second)
	if ex := h.exemplars[0]; ex.Trace != 4 {
		t.Errorf("later-TS observation did not replace: %+v", ex)
	}
}

func TestObserveExemplarZeroTraceDegradesToObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	h.ObserveExemplar(123, 0, time.Second)
	if histCount(h) != 1 {
		t.Fatalf("count = %d, want 1", histCount(h))
	}
	if h.exemplars != nil {
		t.Errorf("zero trace allocated exemplar slots: %+v", h.exemplars)
	}
	var nilH *Histogram
	nilH.ObserveExemplar(1, 2, 3) // must not panic
}

func TestExemplarSnapshotJSONAndTextStability(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	h.ObserveDurationExemplar(time.Hour, 77, 3*time.Second) // +Inf bucket
	h.Observe(float64(time.Millisecond))                    // no exemplar

	snap := r.Snapshot()
	hs := snap.Histograms[0]
	if len(hs.Exemplars) != 1 {
		t.Fatalf("exemplar rows = %d, want 1", len(hs.Exemplars))
	}
	ex := hs.Exemplars[0]
	if !math.IsInf(ex.UpperBound, 1) || ex.Trace != 77 || ex.TS != 3*time.Second {
		t.Errorf("exemplar row = %+v", ex)
	}

	// JSON round-trips, +Inf encoded as null.
	data, err := json.Marshal(hs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"exemplars":[{"le":null,"trace":77`)) {
		t.Errorf("JSON missing exemplar row: %s", data)
	}
	var back HistSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Exemplars) != 1 || !math.IsInf(back.Exemplars[0].UpperBound, 1) || back.Exemplars[0].Trace != 77 {
		t.Errorf("exemplar did not round-trip: %+v", back.Exemplars)
	}

	// The text format must not mention exemplars (golden dumps).
	var buf bytes.Buffer
	if err := snap.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "exemplar") {
		t.Errorf("text format leaked exemplars:\n%s", buf.String())
	}

	// A histogram without captures exports no exemplars key at all.
	r2 := NewRegistry()
	r2.Histogram("lat").Observe(float64(time.Millisecond))
	data2, err := json.Marshal(r2.Snapshot().Histograms[0])
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data2, []byte("exemplars")) {
		t.Errorf("exemplar-free histogram exported exemplars key: %s", data2)
	}
}
