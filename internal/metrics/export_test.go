package metrics

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// goldenRegistry builds a deterministic registry exercising all three
// instrument kinds.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("mem_cow_faults_total").Add(4)
	r.Counter(Name("cluster_node_invocations_total", "node", "node-00")).Add(7)
	r.Gauge("msgbus_queue_depth").Set(2)
	h := r.HistogramWith("snapshot_restore_duration", UnitDuration, []float64{
		float64(10 * time.Millisecond), float64(100 * time.Millisecond),
	})
	h.Observe(float64(12 * time.Millisecond))
	h.Observe(float64(14 * time.Millisecond))
	h.Observe(float64(250 * time.Millisecond))
	b := r.HistogramWith("queue_batch_size", "", []float64{1, 8})
	b.Observe(1)
	b.Observe(5)
	return r
}

// goldenText is the expected stable text rendering; a change here is a
// breaking change to the exporter format and must be called out in
// docs/observability.md.
const goldenText = `# fireworks metrics snapshot (virtual time 0s)
counter cluster_node_invocations_total{node="node-00"} 7
counter mem_cow_faults_total 4
gauge msgbus_queue_depth 2
histogram queue_batch_size count=2 sum=6 min=1 p50=3 p90=4.6 p99=4.96 p99.9=4.996 max=5
  bucket le=1 1
  bucket le=8 2
  bucket le=+Inf 2
histogram snapshot_restore_duration count=3 sum=276ms min=12ms p50=14ms p90=202.8ms p99=245.28ms p99.9=249.528ms max=250ms
  bucket le=10ms 0
  bucket le=100ms 2
  bucket le=+Inf 3
`

func TestTextExportGolden(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WriteFormat(&sb, "text"); err != nil {
		t.Fatal(err)
	}
	if sb.String() != goldenText {
		t.Fatalf("text export drifted from golden.\n--- got ---\n%s--- want ---\n%s", sb.String(), goldenText)
	}
}

func TestTextExportIsStable(t *testing.T) {
	var a, b strings.Builder
	r := goldenRegistry()
	if err := r.WriteFormat(&a, "text"); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteFormat(&b, "text"); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two renderings of the same registry differ")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	snap := goldenRegistry().Snapshot()
	var sb strings.Builder
	if err := snap.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Fatalf("round trip drifted.\n got: %+v\nwant: %+v", back, snap)
	}
}

func TestJSONContainsLabeledNames(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WriteFormat(&sb, "json"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`"virtual_time_ns": 0`,
		`cluster_node_invocations_total{node=\"node-00\"}`,
		`"unit": "ns"`,
		`"le": null`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %q:\n%s", want, out)
		}
	}
}
