package main

import (
	"encoding/json"
	"os"
	"time"

	"repro/internal/stats"
)

// span is one timed call into a layer: name, start and end on the host
// clock (ns since the recorder was created), the span that caused it
// (-1 for an op's root) and the op it belongs to.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; the traced replay is single-threaded,
// so nesting is a stack.
type recorder struct {
	t0    time.Time
	spans []span
	stack []int32
	// classes[i] is the class of recorded op i; spans carry i as Op.
	classes []string
	// on is false during set-up and warm-up, which are replayed but not
	// attributed.
	on bool
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// beginOp opens the root span of the next recorded op.
func (r *recorder) beginOp(class, root string) {
	if r.on {
		r.classes = append(r.classes, class)
	}
	r.begin(root)
}

func (r *recorder) begin(name string) {
	if !r.on {
		return
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.stack = append(r.stack, int32(len(r.spans)))
	r.spans = append(r.spans, span{Name: name, Op: len(r.classes) - 1, Parent: parent, Start: int64(time.Since(r.t0))})
}

func (r *recorder) end() {
	if !r.on {
		return
	}
	n := len(r.stack) - 1
	r.spans[r.stack[n]].End = int64(time.Since(r.t0))
	r.stack = r.stack[:n]
}

// perOp returns, per span name, one value in µs for every recorded op of
// the class (0 where the op has no such span): the span's self time
// (duration minus the part its children cover; children run sequentially
// inside their parent) when self is true, its full duration otherwise,
// summed over the op's spans of that name.
func (r *recorder) perOp(class string, self bool) map[string][]float64 {
	dur := make([]int64, len(r.spans))
	for i, s := range r.spans {
		dur[i] += s.End - s.Start
		if self && s.Parent >= 0 {
			dur[s.Parent] -= s.End - s.Start
		}
	}
	slot := make([]int, len(r.classes)) // op → index among ops of the class
	n := 0
	for i, c := range r.classes {
		slot[i] = -1
		if c == class {
			slot[i] = n
			n++
		}
	}
	out := map[string][]float64{}
	for i, s := range r.spans {
		if slot[s.Op] < 0 {
			continue
		}
		if out[s.Name] == nil {
			out[s.Name] = make([]float64, n)
		}
		out[s.Name][slot[s.Op]] += float64(dur[i]) / 1e3
	}
	return out
}

// opsOf returns how many recorded ops have the class, and how many spans
// with the name they hold in total.
func (r *recorder) opsOf(class, name string) (ops, spans int) {
	for _, c := range r.classes {
		if c == class {
			ops++
		}
	}
	for _, s := range r.spans {
		if s.Name == name && r.classes[s.Op] == class {
			spans++
		}
	}
	return ops, spans
}

// medianBand returns the indices of the values between the 45th and 55th
// percentile: the "median ops". Layer figures are means over this band,
// so they add up to the band's mean total (medians of parts do not add
// when, say, two languages make the distribution bimodal).
func medianBand(totals []float64) []int {
	lo, hi := stats.Percentile(totals, 45), stats.Percentile(totals, 55)
	var idx []int
	for i, v := range totals {
		if v >= lo && v <= hi {
			idx = append(idx, i)
		}
	}
	return idx
}

// bandMean is the mean of xs over the given indices (0 for a span no op
// of the class has).
func bandMean(xs []float64, idx []int) float64 {
	if len(xs) == 0 || len(idx) == 0 {
		return 0
	}
	var sum float64
	for _, i := range idx {
		sum += xs[i]
	}
	return sum / float64(len(idx))
}

// spanCostNS calibrates what one begin/end pair costs, so the traced
// run's own overhead is a reported number.
func spanCostNS() float64 {
	const n = 200_000
	r := newRecorder()
	r.on = true
	r.classes = []string{"calibrate"}
	r.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		r.begin("calibrate")
		r.end()
	}
	return float64(time.Since(start)) / n
}

func (r *recorder) writeFile(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
