package metrics

import (
	"cmp"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/stats"
)

// sameBits compares floats as bit patterns, so NaN equals NaN and the
// comparison is the byte-identity the exports promise.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkWindow compares every quantile the histogram exports against
// stats.Percentile over the ring's own contents, and the blocks against
// their invariants.
func checkWindow(t *testing.T, h *Histogram, step int) {
	t.Helper()
	w := &h.win
	held := 0
	for b, blk := range w.blocks {
		if len(blk) == 0 || len(blk) > blockCap {
			t.Fatalf("step %d: block %d holds %d samples", step, b, len(blk))
		}
		if !sort.SliceIsSorted(blk, func(i, j int) bool { return cmp.Less(blk[i], blk[j]) }) {
			t.Fatalf("step %d: block %d is not sorted", step, b)
		}
		if b > 0 {
			prev := w.blocks[b-1]
			if cmp.Less(blk[0], prev[len(prev)-1]) {
				t.Fatalf("step %d: block %d starts before block %d ends", step, b, b-1)
			}
		}
		held += len(blk)
	}
	if held != len(w.ring) {
		t.Fatalf("step %d: blocks hold %d samples, ring %d", step, held, len(w.ring))
	}
	if max := 4*len(w.ring)/blockCap + 1; len(w.blocks) > max {
		t.Fatalf("step %d: %d blocks for %d samples, bound %d", step, len(w.blocks), len(w.ring), max)
	}
	snap := h.snapshot()
	for _, q := range []struct {
		p   float64
		got float64
	}{{50, snap.P50}, {90, snap.P90}, {99, snap.P99}, {99.9, snap.P999}, {0, h.Percentile(0)}, {100, h.Percentile(100)}, {37.5, h.Percentile(37.5)}} {
		if want := stats.Percentile(w.ring, q.p); !sameBits(q.got, want) {
			t.Fatalf("step %d: p%v = %v (%#x), stats.Percentile over the ring = %v (%#x)",
				step, q.p, q.got, math.Float64bits(q.got), want, math.Float64bits(want))
		}
		if got := h.Percentile(q.p); !sameBits(got, q.got) {
			t.Fatalf("step %d: Percentile(%v) = %v, snapshot %v", step, q.p, got, q.got)
		}
	}
}

// TestWindowExactness feeds seeded sequences through a histogram past
// the point where the ring wraps and checks, at sampled steps, that
// every quantile equals a fresh sort of the ring's contents bit for bit.
func TestWindowExactness(t *testing.T) {
	total := maxSamples + maxSamples/2
	if testing.Short() {
		total = maxSamples + 3000
	}
	sequences := map[string]func(rng *rand.Rand, i int) float64{
		"heavy duplicates": func(rng *rand.Rand, i int) float64 { return float64(rng.Intn(7)) * 1.5 },
		"constant":         func(rng *rand.Rand, i int) float64 { return 42 },
		"descending":       func(rng *rand.Rand, i int) float64 { return float64(total - i) },
		"ascending":        func(rng *rand.Rand, i int) float64 { return float64(i) / 3 },
		"latency-like":     func(rng *rand.Rand, i int) float64 { return math.Round(rng.ExpFloat64()*1e5) * 10 },
		"two plateaus": func(rng *rand.Rand, i int) float64 {
			if (i/5000)%2 == 0 {
				return 1000
			}
			return rng.Float64()
		},
	}
	for name, gen := range sequences {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			h := NewRegistry().HistogramWith("w", "", []float64{1, 10})
			for i := 0; i < total; i++ {
				h.Observe(gen(rng, i))
				// Densely while small and around the wrap, sparsely between.
				if i < 40 || i%4099 == 0 || (i >= maxSamples-2 && i < maxSamples+10) || i == total-1 {
					checkWindow(t, h, i)
				}
			}
			if len(h.win.ring) != maxSamples {
				t.Fatalf("ring holds %d samples after %d observations", len(h.win.ring), total)
			}
		})
	}
}

// TestWindowNonFinite pins what a NaN or infinite observation does: it
// is a sample like any other (NaNs rank first, as sort.Float64s puts
// them), nothing panics, and once it has been evicted the ranks are
// exact again.
func TestWindowNonFinite(t *testing.T) {
	h := NewRegistry().HistogramWith("w", "", []float64{1, 10})
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.NaN()}
	for i := 0; i < 200; i++ {
		h.Observe(float64(i % 9))
		if i%50 == 10 {
			h.Observe(odd[i/50])
		}
		checkWindow(t, h, i)
	}
	if got := h.Percentile(0); !math.IsNaN(got) {
		t.Fatalf("p0 with NaNs in the window = %v, want NaN (NaNs sort first)", got)
	}
	if got := h.Percentile(100); !math.IsInf(got, 1) {
		t.Fatalf("p100 with +Inf in the window = %v, want +Inf", got)
	}
	if got, want := h.Count(), uint64(204); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	// Push the odd samples out of the window: every rank is finite again.
	for i := 0; i < maxSamples; i++ {
		h.Observe(float64(i % 11))
	}
	checkWindow(t, h, maxSamples)
	if lo, hi := h.Percentile(0), h.Percentile(100); lo != 0 || hi != 10 {
		t.Fatalf("after eviction p0, p100 = %v, %v; want 0, 10", lo, hi)
	}
}
