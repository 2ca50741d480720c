// Package stats provides the small set of statistics helpers used by the
// Fireworks experiment harness: mean, geometric mean, percentiles, and
// speedup formatting. All functions are pure and allocation-light.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs, or 0 for an empty slice.
// Non-positive inputs are invalid for a geometric mean and panic, since a
// silent fallback would corrupt the figure-level summaries that depend on
// this function.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sumLog float64
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %g", x))
		}
		sumLog += math.Log(x)
	}
	return math.Exp(sumLog / float64(len(xs)))
}

// GeoMeanDurations returns the geometric mean of a set of durations.
func GeoMeanDurations(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(GeoMean(xs))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It returns 0 for an empty
// slice. The input is not modified.
func Percentile(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return PercentileSorted(len(sorted), func(i int) float64 { return sorted[i] }, p)
}

// PercentileSorted is Percentile over n values already in ascending
// order (sort.Float64s order: NaNs first), read by rank through at. It
// is the one interpolation routine: a caller that keeps its values
// ordered gets the same bits Percentile would give, without the sort.
func PercentileSorted(n int, at func(rank int) float64, p float64) float64 {
	if n == 0 {
		return 0
	}
	// NaN fails both range checks below and would flow into the array
	// index; clamp it with the other out-of-range inputs.
	if math.IsNaN(p) || p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	if n == 1 {
		return at(0)
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return at(lo)
	}
	frac := rank - float64(lo)
	return at(lo)*(1-frac) + at(hi)*frac
}

// Speedup returns how many times faster "fast" is than "slow"
// (slow / fast). It returns +Inf when fast is zero and slow is not, and 1
// when both are zero.
func Speedup(slow, fast time.Duration) float64 {
	if fast == 0 {
		if slow == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return float64(slow) / float64(fast)
}

// FormatSpeedup renders a speedup factor the way the paper reports them,
// e.g. "20.6x" or "1.4x".
func FormatSpeedup(f float64) string {
	if math.IsInf(f, 1) {
		return "infx"
	}
	return fmt.Sprintf("%.1fx", f)
}

// FormatBytes renders a byte count with a binary-unit suffix (KiB, MiB,
// GiB) the way memory-experiment tables report them.
func FormatBytes(n uint64) string {
	const (
		kib = 1 << 10
		mib = 1 << 20
		gib = 1 << 30
	)
	switch {
	case n >= gib:
		return fmt.Sprintf("%.2f GiB", float64(n)/gib)
	case n >= mib:
		return fmt.Sprintf("%.2f MiB", float64(n)/mib)
	case n >= kib:
		return fmt.Sprintf("%.2f KiB", float64(n)/kib)
	default:
		return fmt.Sprintf("%d B", n)
	}
}
