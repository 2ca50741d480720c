package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
)

// target executes one op and returns what came back: the real gateway
// over HTTP, or the in-process mirror.
type target interface {
	do(o op) (reply, error)
}

// httpTarget sends ops to a gateway process over at most `clients`
// keep-alive connections.
type httpTarget struct {
	client *http.Client
	base   string
}

func newHTTPTarget(base string, clients int) *httpTarget {
	return &httpTarget{base: base, client: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients,
			DisableCompression: true,
		},
	}}
}

func (t *httpTarget) do(o op) (reply, error) {
	req, err := http.NewRequest(o.method, t.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return reply{}, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: body, nextSince: resp.Header.Get("X-Next-Since")}, nil
}

// sample is one executed op: its host-clock latency as the caller saw
// it, the virtual-clock latency the reply carried, and the oracle's
// verdict.
type sample struct {
	idx   int
	class string
	host  time.Duration
	virt  virtual
	err   error
}

// drive runs the closed loop: each client takes the next op of the
// sequence, waits for its reply, checks it, and repeats until the
// sequence index reaches limit (limit >= 0) or the deadline passes
// (limit < 0). It returns the samples in sequence order.
func drive(t target, seq *sequence, clients, limit int, deadline time.Time) []sample {
	perClient := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				if limit < 0 && !time.Now().Before(deadline) {
					return
				}
				i, o, ok := seq.take(limit)
				if !ok {
					return
				}
				start := time.Now()
				r, err := t.do(o)
				class := o.class
				for err == nil && o.followUp != nil {
					next, more := o.followUp(r)
					if !more {
						break
					}
					o = next
					r, err = t.do(o)
				}
				s := sample{idx: i, class: class, host: time.Since(start)}
				if err == nil {
					s.virt, err = o.check(r)
				}
				if err != nil {
					s.err = fmt.Errorf("op %d %s %s: %w", i, o.method, o.path, err)
				}
				perClient[c] = append(perClient[c], s)
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].idx < all[j].idx })
	return all
}

// prepare runs a workload's set-up against a target: installs and
// registrations, then the unmeasured warm-up ops. Any failure here is
// fatal, since nothing measured afterwards would mean anything. It
// returns the set-up ops' samples (their virtual install times).
func prepare(t target, w *workload, seq *sequence) ([]sample, error) {
	var done []sample
	for _, o := range w.setup() {
		r, err := t.do(o)
		var v virtual
		if err == nil {
			v, err = o.check(r)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: set-up %s %s: %w", w.name, o.method, o.path, err)
		}
		done = append(done, sample{class: o.class, virt: v})
	}
	for _, s := range drive(t, seq, w.clients, w.warmup, time.Time{}) {
		if s.err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", w.name, s.err)
		}
	}
	return done, nil
}

// runConfig is what one benchmark run is asked to do.
type runConfig struct {
	fwsim   string // path of the built gateway binary
	outDir  string
	seed    int64
	seconds float64 // measured phase length, when ops == 0
	ops     int     // fixed measured op count (exact-repeat mode), or 0
	setups  int     // how many times set-up is timed
}

func (c runConfig) deadline() time.Time {
	return time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
}

// limit is the sequence index the measured phase stops at, or -1 when
// the phase is bounded by time.
func (c runConfig) limit(w *workload) int {
	if c.ops > 0 {
		return w.warmup + c.ops
	}
	return -1
}

// gatewayRun is everything observed from outside during one measured
// phase against a gateway process.
type gatewayRun struct {
	gw           *gateway // running until the caller stops it
	httpBase     *httpTarget
	seq          *sequence
	setups       []float64 // seconds, one per timed set-up
	setupSamples []sample
	samples      []sample
	wall         time.Duration
	cpuSec       float64 // gateway utime+stime over the measured phase
	cpuOK        bool
	peakRSS      float64 // MB, VmHWM at the end of the measured phase
	rssOK        bool
}

// setUpGateway times cfg.setups complete set-ups, each of a fresh
// gateway process: spawn → /healthz 200 → installs and registrations →
// warm-up done. All but the last gateway are stopped again; the last is
// left running, ready to be measured.
func setUpGateway(cfg runConfig, w *workload) (*gatewayRun, error) {
	run := &gatewayRun{}
	for k := 0; k < cfg.setups; k++ {
		start := time.Now()
		errPath := filepath.Join(cfg.outDir, fmt.Sprintf("gateway-%s-setup%d.stderr", w.name, k))
		g, err := startGateway(cfg.fwsim, w.gatewayFlags(), errPath)
		if err != nil {
			return nil, err
		}
		t := newHTTPTarget(g.base, w.clients)
		seq := newSequence(w, cfg.seed)
		done, err := prepare(t, w, seq)
		if err != nil {
			g.stop()
			return nil, err
		}
		run.setups = append(run.setups, time.Since(start).Seconds())
		if k < cfg.setups-1 {
			g.stop()
			continue
		}
		run.gw, run.httpBase, run.seq, run.setupSamples = g, t, seq, done
	}
	return run, nil
}

// measure drives the measured phase against the prepared gateway.
func (run *gatewayRun) measure(cfg runConfig, w *workload) {
	cpu0, ok0 := cpuSeconds(run.gw.pid())
	start := time.Now()
	run.samples = drive(run.httpBase, run.seq, w.clients, cfg.limit(w), cfg.deadline())
	run.wall = time.Since(start)
	cpu1, ok1 := cpuSeconds(run.gw.pid())
	run.cpuSec, run.cpuOK = cpu1-cpu0, ok0 && ok1
	run.peakRSS, run.rssOK = peakRSSMB(run.gw.pid())
}

// ms converts durations to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func hostMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.host)
	}
	return out
}

func ofClass(samples []sample, class string) []sample {
	var out []sample
	for _, s := range samples {
		if s.class == class {
			out = append(out, s)
		}
	}
	return out
}

func failures(samples []sample) (n int, first []string) {
	for _, s := range samples {
		if s.err != nil {
			n++
			if len(first) < 5 {
				first = append(first, s.err.Error())
			}
		}
	}
	return n, first
}

// endToEnd computes the end-to-end metrics of one untraced gateway run.
func endToEnd(w *workload, run *gatewayRun) metricSet {
	m := metricSet{}
	n := len(run.samples)
	host := hostMS(run.samples)
	m.set("setup_s", stats.Percentile(run.setups, 50), "s")
	m.set("ops_per_s", float64(n)/run.wall.Seconds(), "1/s")
	m.set("lat_p50_ms", stats.Percentile(host, 50), "ms")
	// p95, not p99: the shortest run (compute-mix, ~800 ops) must still
	// have ten samples beyond the reported percentile.
	m.set("lat_p95_ms", stats.Percentile(host, 95), "ms")
	if run.cpuOK {
		m.set("cpu_ms_per_op", run.cpuSec*1000/float64(n), "ms")
	}
	if run.rssOK {
		m.set("peak_rss_mb", run.peakRSS, "MB")
	}
	// drift: what a long-lived gateway's callers feel as history builds
	// up: latency of the second half of the ops over the first half's.
	// Halves and 5 %-trimmed means are the steadiest of the definitions
	// tried: fifths and medians of a two-function mix read ±20 % on a
	// workload that does not drift at all, plain means follow GC spikes.
	m.set("drift_ratio", ratio(trimmedMean(host[n/2:], 0.05), trimmedMean(host[:n/2], 0.05)), "ratio")
	m.set("virt_lat_iqm_ms", interquartileMean(virtTotalsMS(w, run.samples)), "ms")
	return m
}

// trimmedMean is the mean of xs without its lowest and highest `trim`
// share of values.
func trimmedMean(xs []float64, trim float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	k := int(float64(len(sorted)) * trim)
	return stats.Mean(sorted[k : len(sorted)-k])
}

// interquartileMean is the mean of the middle half of xs. The virtual
// clock's median is one constant on every run and its mean is moved by
// the handful of ops that sat out a retry backoff; the middle half moves
// with the modelled system and with the seeded op mix only.
func interquartileMean(xs []float64) float64 { return trimmedMean(xs, 0.25) }

// virtTotalsMS lists the virtual-clock total latency of every
// dominant-class op that carried one.
func virtTotalsMS(w *workload, samples []sample) []float64 {
	var out []float64
	for _, s := range ofClass(samples, w.dominant) {
		if s.virt.total > 0 {
			out = append(out, ms(s.virt.total))
		}
	}
	return out
}
