package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/insight"
	"repro/internal/metrics"
)

// reply is what came back for one op, from the gateway or its mirror.
type reply struct {
	status int
	body   []byte
	// nextSince is the X-Next-Since header of an /events/stream reply.
	nextSince string
}

// virtual is the virtual-clock latency breakdown a reply carries: the
// modelled Fireworks system's answer, as opposed to the simulator's
// host-clock cost.
type virtual struct {
	startup, exec, others, total time.Duration
}

// nodes is the fleet size every workload's gateway runs with.
const nodes = 3

func validNode(name string) bool {
	for i := 0; i < nodes; i++ {
		if name == fmt.Sprintf("node-%02d", i) {
			return true
		}
	}
	return false
}

// refFact is the independent reference for faas-fact: the number of
// prime factors, with multiplicity, of n, n+1, …, n+rounds-1.
func refFact(n, rounds int64) int64 {
	var total int64
	for i := int64(0); i < rounds; i++ {
		m := n + i
		for d := int64(2); d*d <= m; d++ {
			for m%d == 0 {
				total++
				m /= d
			}
		}
		if m > 1 {
			total++
		}
	}
	return total
}

// refMatrix is the independent reference for faas-matrix-mult:
// c[0][0] + c[n-1][n-1] of the product of the two generated matrices.
func refMatrix(n int64) int64 {
	a := func(i, j int64) int64 { return (i*31 + j*17 + 3) % 97 }
	b := func(i, j int64) int64 { return (i*31 + j*17 + 7) % 97 }
	var first, last int64
	for k := int64(0); k < n; k++ {
		first += a(0, k) * b(k, 0)
		last += a(n-1, k) * b(k, n-1)
	}
	return first + last
}

type latencyJSON struct {
	Startup string `json:"start-up"`
	Exec    string `json:"exec"`
	Others  string `json:"others"`
	Total   string `json:"total"`
}

func (l latencyJSON) parse() (virtual, error) {
	var v virtual
	for _, f := range []struct {
		s   string
		dst *time.Duration
	}{{l.Startup, &v.startup}, {l.Exec, &v.exec}, {l.Others, &v.others}, {l.Total, &v.total}} {
		d, err := time.ParseDuration(f.s)
		if err != nil {
			return v, fmt.Errorf("latency %q: %w", f.s, err)
		}
		*f.dst = d
	}
	if v.total <= 0 {
		return v, fmt.Errorf("latency.total %v is not positive", v.total)
	}
	return v, nil
}

func wantStatus(r reply, want int) error {
	if r.status != want {
		return fmt.Errorf("status %d, want %d: %s", r.status, want, strings.Join(strings.Fields(string(r.body)), " "))
	}
	return nil
}

func checkStatus(want int) func(reply) (virtual, error) {
	return func(r reply) (virtual, error) { return virtual{}, wantStatus(r, want) }
}

// checkInvoke verifies an invoke reply: 200, a fleet node, a non-zero
// trace id, a parseable latency breakdown and the reference result
// (int64 or string).
func checkInvoke(want any) func(reply) (virtual, error) {
	return func(r reply) (virtual, error) {
		if err := wantStatus(r, http.StatusOK); err != nil {
			return virtual{}, err
		}
		var resp struct {
			Result  json.RawMessage `json:"result"`
			Latency latencyJSON     `json:"latency"`
			Node    string          `json:"node"`
			TraceID uint64          `json:"trace_id"`
		}
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return virtual{}, fmt.Errorf("invoke reply: %w", err)
		}
		v, err := resp.Latency.parse()
		if err != nil {
			return v, err
		}
		if !validNode(resp.Node) {
			return v, fmt.Errorf("node %q is not in the fleet", resp.Node)
		}
		if resp.TraceID == 0 {
			return v, fmt.Errorf("trace_id is zero")
		}
		got := strings.TrimSpace(string(resp.Result))
		var wantJSON string
		switch w := want.(type) {
		case int64:
			wantJSON = strconv.FormatInt(w, 10)
		case string:
			wantJSON = strconv.Quote(w)
		}
		if got != wantJSON {
			return v, fmt.Errorf("result %s, want %s", got, wantJSON)
		}
		return v, nil
	}
}

// checkInstall verifies an install reply; its virtual total is the
// modelled post-JIT snapshot creation time.
func checkInstall(name string) func(reply) (virtual, error) {
	return func(r reply) (virtual, error) {
		if err := wantStatus(r, http.StatusCreated); err != nil {
			return virtual{}, err
		}
		var resp struct {
			Function      string `json:"function"`
			InstallTime   string `json:"install_time"`
			SnapshotBytes uint64 `json:"snapshot_bytes"`
		}
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return virtual{}, fmt.Errorf("install reply: %w", err)
		}
		d, err := time.ParseDuration(resp.InstallTime)
		if err != nil {
			return virtual{}, fmt.Errorf("install_time: %w", err)
		}
		if resp.Function != name || resp.SnapshotBytes == 0 {
			return virtual{}, fmt.Errorf("install reply names %q with %d snapshot bytes, want %q", resp.Function, resp.SnapshotBytes, name)
		}
		return virtual{total: d}, nil
	}
}

func checkRemove(name string) func(reply) (virtual, error) {
	return func(r reply) (virtual, error) {
		if err := wantStatus(r, http.StatusOK); err != nil {
			return virtual{}, err
		}
		var resp struct {
			Removed string `json:"removed"`
		}
		if err := json.Unmarshal(r.body, &resp); err != nil || resp.Removed != name {
			return virtual{}, fmt.Errorf("remove reply %s, want removed=%q", bytes.TrimSpace(r.body), name)
		}
		return virtual{}, nil
	}
}

// runSummary is the gateway's rendering of one workflow run.
type runSummary struct {
	Run    string `json:"run"`
	Status string `json:"status"`
	Steps  []struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	} `json:"steps"`
	TraceID uint64      `json:"trace_id"`
	Latency latencyJSON `json:"latency"`
}

// verify checks a finished run: completed, a non-zero trace id, a
// parseable latency and exactly the expected outcome per step (which is
// how the Alexa intent → branch decision is checked).
func (rs runSummary) verify(wantSteps map[string]string) (virtual, error) {
	v, err := rs.Latency.parse()
	if err != nil {
		return v, err
	}
	if rs.Status != "completed" || rs.TraceID == 0 {
		return v, fmt.Errorf("run %s status %q trace %d, want completed and a trace", rs.Run, rs.Status, rs.TraceID)
	}
	if len(rs.Steps) != len(wantSteps) {
		return v, fmt.Errorf("run has %d steps, want %d", len(rs.Steps), len(wantSteps))
	}
	for _, st := range rs.Steps {
		if wantSteps[st.ID] != st.Status {
			return v, fmt.Errorf("step %q is %q, want %q", st.ID, st.Status, wantSteps[st.ID])
		}
	}
	return v, nil
}

// replayedRuns decodes a POST /workflows/{name}/dlq/replay reply.
func replayedRuns(r reply) ([]runSummary, error) {
	var resp struct {
		Replayed []runSummary `json:"replayed"`
	}
	err := json.Unmarshal(r.body, &resp)
	return resp.Replayed, err
}

// stalledRun reports whether a run reply (502, status "stalled") or a
// replay reply still holds a stalled run, and which.
func stalledRun(r reply) (runID string, stalled bool) {
	if r.status == http.StatusBadGateway {
		var rs runSummary
		if json.Unmarshal(r.body, &rs) == nil && rs.Status == "stalled" {
			return rs.Run, true
		}
		return "", false
	}
	runs, err := replayedRuns(r)
	if err != nil {
		return "", false
	}
	for _, rs := range runs {
		if rs.Status == "stalled" {
			return rs.Run, true
		}
	}
	return "", false
}

func checkRun(wantSteps map[string]string) func(reply) (virtual, error) {
	return func(r reply) (virtual, error) {
		if err := wantStatus(r, http.StatusOK); err != nil {
			return virtual{}, err
		}
		var rs runSummary
		if err := json.Unmarshal(r.body, &rs); err != nil {
			return virtual{}, fmt.Errorf("run reply: %w", err)
		}
		return rs.verify(wantSteps)
	}
}

// checkReplay verifies that a DLQ replay brought the stalled run to the
// outcome the original request should have had.
func checkReplay(runID string, wantSteps map[string]string) func(reply) (virtual, error) {
	return func(r reply) (virtual, error) {
		if err := wantStatus(r, http.StatusOK); err != nil {
			return virtual{}, err
		}
		runs, err := replayedRuns(r)
		if err != nil {
			return virtual{}, fmt.Errorf("replay reply: %w", err)
		}
		for _, rs := range runs {
			if rs.Run == runID {
				return rs.verify(wantSteps)
			}
		}
		return virtual{}, fmt.Errorf("replay did not resume run %s", runID)
	}
}

// checkScrape verifies that an operator read endpoint returns a
// document of its own type with content in it.
func checkScrape(path string) func(reply) (virtual, error) {
	return func(r reply) (virtual, error) {
		if err := wantStatus(r, http.StatusOK); err != nil {
			return virtual{}, err
		}
		if strings.HasPrefix(path, "/metrics") {
			var snap metrics.Snapshot
			if err := json.Unmarshal(r.body, &snap); err != nil || len(snap.Counters) == 0 {
				return virtual{}, fmt.Errorf("metrics scrape: %d counters, err %v", len(snap.Counters), err)
			}
			return virtual{}, nil
		}
		var rep insight.Report
		if err := json.Unmarshal(r.body, &rep); err != nil || rep.TraceCount == 0 {
			return virtual{}, fmt.Errorf("insight report: %d traces, err %v", rep.TraceCount, err)
		}
		return virtual{}, nil
	}
}

// checkStream verifies an /events/stream reply (NDJSON events, every one
// past the cursor the request carried) and advances the sequence's
// cursor to X-Next-Since.
func checkStream(s *sequence, since uint64) func(reply) (virtual, error) {
	return func(r reply) (virtual, error) {
		if err := wantStatus(r, http.StatusOK); err != nil {
			return virtual{}, err
		}
		next, err := strconv.ParseUint(r.nextSince, 10, 64)
		if err != nil || next < since {
			return virtual{}, fmt.Errorf("X-Next-Since %q after cursor %d (err %v)", r.nextSince, since, err)
		}
		sc := bufio.NewScanner(bytes.NewReader(r.body))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var e struct {
				Seq  uint64 `json:"seq"`
				Kind string `json:"kind"`
			}
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil || e.Seq <= since || e.Kind == "" {
				return virtual{}, fmt.Errorf("stream line %q after cursor %d (err %v)", sc.Bytes(), since, err)
			}
		}
		s.setCursor(next)
		return virtual{}, sc.Err()
	}
}
