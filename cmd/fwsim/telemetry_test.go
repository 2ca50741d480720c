package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// newTelemServer builds a gateway with the telemetry governor armed:
// keep no boring traces (rate=0), cardinality budget of card.
func newTelemServer(t *testing.T, card int) *httptest.Server {
	t.Helper()
	s := newServer(2, nil, &telemetry.Config{Seed: 7, KeepRate: -1}, card)
	ts := httptest.NewServer(s.mux())
	t.Cleanup(ts.Close)
	return ts
}

// Endpoint hygiene: /metrics and /timeseries reject unknown formats
// with 400 instead of silently falling back, matching the /events
// limit validation.
func TestStrictFormatValidation(t *testing.T) {
	ts := newTestServer(t)
	for _, url := range []string{
		ts.URL + "/metrics?format=xml",
		ts.URL + "/timeseries?format=prometheus",
	} {
		status, body := get(t, url)
		if status != http.StatusBadRequest {
			t.Fatalf("GET %s = %d, want 400 (%s)", url, status, body)
		}
		if !strings.Contains(string(body), "unknown format") {
			t.Fatalf("GET %s error body = %s", url, body)
		}
	}
	// The valid spellings still work, including the explicit defaults.
	for _, url := range []string{
		ts.URL + "/metrics", ts.URL + "/metrics?format=text", ts.URL + "/metrics?format=json",
		ts.URL + "/timeseries", ts.URL + "/timeseries?format=csv", ts.URL + "/timeseries?format=json",
	} {
		if status, _ := get(t, url); status != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", url, status)
		}
	}
}

func TestEventsStreamEndpoint(t *testing.T) {
	ts := newTestServer(t)
	if status, _ := post(t, ts.URL+"/install", installBody); status != http.StatusCreated {
		t.Fatal("install failed")
	}
	if status, _ := post(t, ts.URL+"/invoke/hello", `{}`); status != http.StatusOK {
		t.Fatal("invoke failed")
	}

	resp, err := http.Get(ts.URL + "/events/stream")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type = %q", ct)
	}
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("stream served %d events, want several", len(lines))
	}
	next, err := strconv.ParseUint(resp.Header.Get("X-Next-Since"), 10, 64)
	if err != nil || next == 0 {
		t.Fatalf("X-Next-Since = %q", resp.Header.Get("X-Next-Since"))
	}
	// Every line is a JSON event with seq > 0, in ascending order.
	var lastSeq uint64
	for _, line := range lines {
		var ev struct {
			Seq uint64 `json:"seq"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("stream line %q: %v", line, err)
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("stream seq not ascending: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
	}
	if lastSeq != next {
		t.Fatalf("X-Next-Since = %d, last line seq = %d", next, lastSeq)
	}

	// Resuming from the cursor with no new activity returns nothing.
	resp2, err := http.Get(ts.URL + "/events/stream?since=" + strconv.FormatUint(next, 10))
	if err != nil {
		t.Fatal(err)
	}
	if body2 := readAll(t, resp2); body2 != "" {
		t.Fatalf("resumed stream not empty: %q", body2)
	}
	if got := resp2.Header.Get("X-Next-Since"); got != strconv.FormatUint(next, 10) {
		t.Fatalf("idle cursor moved: %q", got)
	}

	// A cursor in the middle of the ring is served exactly the events
	// after it; one past the newest Seq gets nothing and stays put, even
	// when it long-polls.
	mid := lines[len(lines)/2-1]
	var midEv struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.Unmarshal([]byte(mid), &midEv); err != nil {
		t.Fatal(err)
	}
	resp3, err := http.Get(ts.URL + "/events/stream?since=" + strconv.FormatUint(midEv.Seq, 10))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := readAll(t, resp3), strings.Join(lines[len(lines)/2:], "\n")+"\n"; got != want {
		t.Fatalf("stream since=%d served %d bytes, want the %d lines after it (%d bytes)",
			midEv.Seq, len(got), len(lines)-len(lines)/2, len(want))
	}
	if got := resp3.Header.Get("X-Next-Since"); got != strconv.FormatUint(next, 10) {
		t.Fatalf("mid-ring cursor advanced to %q, want %d", got, next)
	}
	beyond := strconv.FormatUint(next+1000, 10)
	resp4, err := http.Get(ts.URL + "/events/stream?wait_ms=30&since=" + beyond)
	if err != nil {
		t.Fatal(err)
	}
	if body4 := readAll(t, resp4); body4 != "" || resp4.Header.Get("X-Next-Since") != beyond {
		t.Fatalf("cursor past the newest Seq: body %q, X-Next-Since %q", body4, resp4.Header.Get("X-Next-Since"))
	}

	for _, bad := range []string{"?since=abc", "?wait_ms=-1", "?wait_ms=x"} {
		if status, _ := get(t, ts.URL+"/events/stream"+bad); status != http.StatusBadRequest {
			t.Fatalf("stream%s = %d, want 400", bad, status)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// An armed governor drops boring traces from the journal (404 on
// /trace) while error traces stay resolvable — the causal-link
// guarantee the telem experiment asserts fleet-wide.
func TestTelemetryGovernorOverHTTP(t *testing.T) {
	ts := newTelemServer(t, 0)
	if status, _ := post(t, ts.URL+"/install", installBody); status != http.StatusCreated {
		t.Fatal("install failed")
	}
	status, out := post(t, ts.URL+"/invoke/hello", `{}`)
	if status != http.StatusOK {
		t.Fatal("invoke failed")
	}
	boring := uint64(out["trace_id"].(float64))
	status, out = post(t, ts.URL+"/invoke/no-such-fn", `{}`)
	if status != http.StatusBadGateway {
		t.Fatalf("bad invoke = %d", status)
	}
	errored := uint64(out["trace_id"].(float64))

	if status, _ := get(t, ts.URL+"/trace/"+strconv.FormatUint(boring, 10)); status != http.StatusNotFound {
		t.Fatalf("boring trace still resolvable: %d", status)
	}
	if status, _ := get(t, ts.URL+"/trace/"+strconv.FormatUint(errored, 10)); status != http.StatusOK {
		t.Fatalf("error trace dropped: %d", status)
	}

	// The sampled insight report annotates its coverage.
	_, body := get(t, ts.URL+"/insight/report")
	var rep struct {
		Coverage *struct {
			Kept  int `json:"kept_traces"`
			Total int `json:"total_traces"`
		} `json:"coverage"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Coverage == nil || rep.Coverage.Total < 2 || rep.Coverage.Kept < 1 {
		t.Fatalf("insight coverage = %+v", rep.Coverage)
	}
}

func TestTelemetryEndpoint(t *testing.T) {
	ts := newTelemServer(t, 2)
	if status, _ := post(t, ts.URL+"/install", installBody); status != http.StatusCreated {
		t.Fatal("install failed")
	}
	for i := 0; i < 3; i++ {
		if status, _ := post(t, ts.URL+"/invoke/hello", `{}`); status != http.StatusOK {
			t.Fatal("invoke failed")
		}
	}
	_, body := get(t, ts.URL+"/telemetry")
	var out struct {
		Tail *struct {
			Decided int64 `json:"decided_traces"`
			Dropped int64 `json:"dropped_traces"`
			Bytes   int64 `json:"dropped_bytes"`
		} `json:"tail_sampling"`
		Cardinality struct {
			TotalSeries int `json:"total_series"`
		} `json:"cardinality"`
		Sampler struct {
			Series      int `json:"series"`
			TierBuckets int `json:"tier_buckets"`
		} `json:"sampler"`
		Journal map[string]json.RawMessage `json:"journal"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("telemetry JSON: %v\n%s", err, body)
	}
	// At least the 3 invocations decided and dropped; install-time
	// traces may add to the count.
	if out.Tail == nil || out.Tail.Decided < 3 || out.Tail.Dropped < 3 || out.Tail.Bytes == 0 {
		t.Fatalf("tail accounting = %+v", out.Tail)
	}
	if out.Cardinality.TotalSeries == 0 {
		t.Fatalf("cardinality audit empty:\n%s", body)
	}
	if out.Sampler.Series == 0 || out.Sampler.TierBuckets == 0 {
		t.Fatalf("sampler stats = %+v (rollups not armed?)", out.Sampler)
	}
	if out.Journal["events"] == nil || out.Journal["dropped"] == nil || len(out.Journal) != 2 {
		t.Fatalf("journal stats are not {events, dropped}:\n%s", body)
	}
	if status, _ := get(t, ts.URL+"/telemetry?k=0"); status != http.StatusBadRequest {
		t.Fatal("bad k accepted")
	}

	// Without -telem the plane reports null tail sampling.
	plain := newTestServer(t)
	_, body = get(t, plain.URL+"/telemetry")
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(body, &probe); err != nil {
		t.Fatal(err)
	}
	if string(probe["tail_sampling"]) != "null" {
		t.Fatalf("unarmed tail_sampling = %s", probe["tail_sampling"])
	}
}

func TestParseTelemSpec(t *testing.T) {
	if cfg, _, err := telemetry.ParseSpec(""); cfg != nil || err != nil {
		t.Fatalf("empty spec: %v %v", cfg, err)
	}
	cfg, card, err := telemetry.ParseSpec("seed=9,rate=0.25,card=32")
	if err != nil || cfg.Seed != 9 || cfg.KeepRate != 0.25 || card != 32 {
		t.Fatalf("full spec: %+v card=%d %v", cfg, card, err)
	}
	cfg, _, err = telemetry.ParseSpec("rate=0")
	if err != nil || cfg.KeepRate != -1 {
		t.Fatalf("rate=0 should map to keep-none: %+v %v", cfg, err)
	}
	for _, bad := range []string{"seed", "seed=x", "rate=2", "rate=-0.1", "card=-1", "zap=1"} {
		if _, _, err := telemetry.ParseSpec(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}
