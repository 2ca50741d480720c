package metrics

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/stats"
)

// sameBits compares floats as bit patterns, so NaN equals NaN and the
// comparison is the byte-identity the exports promise.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkWindow compares every quantile the histogram exports against
// stats.Percentile over the ring's own contents, and the blocks against
// their invariants: every distinct sample the ring holds is one entry,
// counted as often as the ring holds it.
func checkWindow(t *testing.T, h *Histogram, step int) {
	t.Helper()
	w := &h.win
	want := map[uint64]int32{}
	for _, v := range w.ring {
		want[math.Float64bits(v)]++
	}
	held, distinct := 0, 0
	if len(w.sizes) != len(w.blocks) || len(w.tops) != len(w.blocks) {
		t.Fatalf("step %d: %d blocks, %d sizes, %d tops", step, len(w.blocks), len(w.sizes), len(w.tops))
	}
	for b, blk := range w.blocks {
		if len(blk.vals) == 0 || len(blk.vals) > blockCap {
			t.Fatalf("step %d: block %d holds %d values", step, b, len(blk.vals))
		}
		n, j := 0, 0
		for i, v := range blk.vals {
			if i > 0 && cmp.Compare(blk.vals[i-1], v) >= 0 {
				t.Fatalf("step %d: block %d is not strictly ascending at %d", step, b, i)
			}
			count := int32(1)
			if j < len(blk.ties) && blk.ties[j].at == int32(i) {
				count += blk.ties[j].extra - blk.surplus(j)
				if count < 2 {
					t.Fatalf("step %d: block %d marks key %d as a tie held %d times", step, b, i, count)
				}
				j++
			}
			if want := want[math.Float64bits(v)]; count != want {
				t.Fatalf("step %d: block %d counts %v %d times, the ring holds it %d times", step, b, v, count, want)
			}
			// Every rank the key's samples hold must lead back to it.
			for r := n; r < n+int(count); r++ {
				if got := blk.index(r); got != i {
					t.Fatalf("step %d: block %d rank %d indexes key %d, want %d", step, b, r, got, i)
				}
			}
			n += int(count)
		}
		if j != len(blk.ties) {
			t.Fatalf("step %d: block %d has %d ties out of order or past its keys", step, b, len(blk.ties)-j)
		}
		if n != w.sizes[b] || !sameBits(w.tops[b], blk.vals[len(blk.vals)-1]) {
			t.Fatalf("step %d: block %d holds %d samples up to %#x, recorded %d up to %#x", step, b, n, blk.vals[len(blk.vals)-1], w.sizes[b], w.tops[b])
		}
		if b > 0 && cmp.Compare(blk.vals[0], w.tops[b-1]) <= 0 {
			t.Fatalf("step %d: block %d starts before block %d ends", step, b, b-1)
		}
		held += n
		distinct += len(blk.vals)
	}
	if held != len(w.ring) || distinct != len(want) {
		t.Fatalf("step %d: blocks hold %d samples in %d entries, ring %d samples, %d distinct", step, held, distinct, len(w.ring), len(want))
	}
	if max := 4*len(w.ring)/blockCap + 1; len(w.blocks) > max {
		t.Fatalf("step %d: %d blocks for %d samples, bound %d", step, len(w.blocks), len(w.ring), max)
	}
	snap := h.snapshot()
	for _, q := range []struct {
		p   float64
		got float64
	}{{50, snap.P50}, {90, snap.P90}, {99, snap.P99}, {99.9, snap.P999}, {0, h.win.percentile(0)}, {100, h.win.percentile(100)}, {37.5, h.win.percentile(37.5)}} {
		if want := stats.Percentile(w.ring, q.p); !sameBits(q.got, want) {
			t.Fatalf("step %d: p%v = %v (%#x), stats.Percentile over the ring = %v (%#x)",
				step, q.p, q.got, math.Float64bits(q.got), want, math.Float64bits(want))
		}
		if got := h.win.percentile(q.p); !sameBits(got, q.got) {
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

// TestWindowNonFinite pins what a NaN, infinite or signed-zero
// observation does: it is a sample like any other (NaNs rank first, as
// sort.Float64s puts them), nothing panics, every quantile has the bits
// stats.Percentile gives over the same samples even where the two
// orders tie values with different bits, and once the odd samples have
// been evicted the ranks are exact again.
func TestWindowNonFinite(t *testing.T) {
	negZero := math.Copysign(0, -1)
	payloadNaN, negNaN := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000000)
	for _, tc := range []struct {
		name string
		obs  []float64
	}{
		{"signed zeros", []float64{negZero, 0, 1}},
		{"signed zeros interleaved", []float64{1, 0, negZero, 0, negZero}},
		{"nan payloads", []float64{payloadNaN, math.NaN(), negNaN, 1, math.NaN(), payloadNaN}},
		{"everything at once", []float64{negNaN, negZero, math.Inf(-1), 0, payloadNaN, math.Inf(1), negZero, 2}},
	} {
		h := NewRegistry().HistogramWith("w", "", []float64{1, 10})
		for i, v := range tc.obs {
			h.Observe(v)
			checkWindow(t, h, i)
		}
		for _, v := range h.win.ring {
			if b := math.Float64bits(v); v == 0 && b != 0 || v != v && b != math.Float64bits(math.NaN()) {
				t.Fatalf("%s: window holds %#x, want every zero +0 and every NaN math.NaN()", tc.name, b)
			}
		}
	}

	h := NewRegistry().HistogramWith("w", "", []float64{1, 10})
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.NaN()}
	for i := 0; i < 200; i++ {
		h.Observe(float64(i % 9))
		if i%50 == 10 {
			h.Observe(odd[i/50])
		}
		checkWindow(t, h, i)
	}
	if got := h.win.percentile(0); !math.IsNaN(got) {
		t.Fatalf("p0 with NaNs in the window = %v, want NaN (NaNs sort first)", got)
	}
	if got := h.win.percentile(100); !math.IsInf(got, 1) {
		t.Fatalf("p100 with +Inf in the window = %v, want +Inf", got)
	}
	if got, want := histCount(h), uint64(204); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	// Push the odd samples out of the window: every rank is finite again.
	for i := 0; i < maxSamples; i++ {
		h.Observe(float64(i % 11))
	}
	checkWindow(t, h, maxSamples)
	if lo, hi := h.win.percentile(0), h.win.percentile(100); lo != 0 || hi != 10 {
		t.Fatalf("after eviction p0, p100 = %v, %v; want 0, 10", lo, hi)
	}
}

// FuzzWindow decodes the input into observations from a small alphabet
// — ties, both zeros, NaNs with different bits, both infinities and
// values distinct per step — and drives one histogram across its
// maxSamples wrap with them: a fill shaped by the input, then steps
// that evict as they insert. After each step every quantile must have
// the bits stats.Percentile finds over the ring. The test keeps the
// ring sorted as it goes instead of sorting it per step, and checks
// once at the end that this equals sorting it, and that every count
// the blocks hold is the ring's.
func FuzzWindow(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte("ties, zeros and NaNs"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 64 {
			return
		}
		alphabet := []float64{
			math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000000),
			math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0, 1, 1, 2.5, -3,
		}
		value := func(b byte, i int) float64 {
			if k := int(b) % 16; k < len(alphabet) {
				return alphabet[k]
			}
			return float64(int(b)*7919+i) / 8 // distinct from step to step
		}
		h := NewRegistry().HistogramWith("w", "", []float64{1, 10})
		w := &h.win
		fill := maxSamples - len(data)
		for i := 0; i < fill; i++ {
			h.Observe(value(data[i%len(data)], i))
		}
		sorted := slices.Clone(w.ring)
		sort.Float64s(sorted)
		rank := func(v float64) int {
			return sort.Search(len(sorted), func(k int) bool { return !cmp.Less(sorted[k], v) })
		}
		for step := 0; step < 4*len(data); step++ {
			i := fill + step
			if len(w.ring) == maxSamples {
				evict := rank(w.ring[w.next])
				sorted = slices.Delete(sorted, evict, evict+1)
			}
			h.Observe(value(data[i%len(data)], i))
			last := w.ring[(w.next+len(w.ring)-1)%len(w.ring)] // as recorded
			if len(w.ring) < maxSamples {
				last = w.ring[len(w.ring)-1]
			}
			sorted = slices.Insert(sorted, rank(last), last)
			for _, p := range []float64{0, 1, 25, 50, 90, 99, 99.9, 100} {
				want := stats.PercentileSorted(len(sorted), func(r int) float64 { return sorted[r] }, p)
				if got := w.percentile(p); !sameBits(got, want) {
					t.Fatalf("step %d: p%v = %v (%#x), stats.Percentile over the ring = %v (%#x)",
						i, p, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
		resorted := slices.Clone(w.ring)
		sort.Float64s(resorted)
		if !slices.EqualFunc(sorted, resorted, sameBits) {
			t.Fatal("the ring kept sorted step by step differs from the ring sorted")
		}
		checkWindow(t, h, fill+4*len(data))
	})
}
