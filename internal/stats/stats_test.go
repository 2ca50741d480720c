package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestGeoMean(t *testing.T) {
	if GeoMean(nil) != 0 {
		t.Fatal("GeoMean(nil) != 0")
	}
	if got := GeoMean([]float64{2, 8}); !approx(got, 4, 1e-9) {
		t.Fatalf("GeoMean(2,8) = %v", got)
	}
	if got := GeoMean([]float64{7}); !approx(got, 7, 1e-9) {
		t.Fatalf("GeoMean(7) = %v", got)
	}
}

func TestGeoMeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-positive input")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestGeoMeanBetweenMinAndMax(t *testing.T) {
	// Property: min <= geomean <= max for positive inputs.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r) + 1
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g := GeoMean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeoMeanDurations(t *testing.T) {
	got := GeoMeanDurations([]time.Duration{2 * time.Millisecond, 8 * time.Millisecond})
	if got < 3900*time.Microsecond || got > 4100*time.Microsecond {
		t.Fatalf("GeoMeanDurations = %v, want ~4ms", got)
	}
	if GeoMeanDurations(nil) != 0 {
		t.Fatal("empty != 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25},
	}
	for _, tc := range cases {
		if got := Percentile(xs, tc.p); !approx(got, tc.want, 1e-9) {
			t.Errorf("P%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile != 0")
	}
	if Percentile([]float64{3}, 99) != 3 {
		t.Fatal("single-element percentile")
	}
	// Out-of-range p values clamp.
	if Percentile(xs, -5) != 1 || Percentile(xs, 200) != 10 {
		t.Fatal("percentile clamping failed")
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestPercentileWithinRangeProperty(t *testing.T) {
	f := func(raw []int16, p uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r)
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		v := Percentile(xs, float64(p%101))
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(100*time.Millisecond, 10*time.Millisecond); got != 10 {
		t.Fatalf("Speedup = %v", got)
	}
	if !math.IsInf(Speedup(time.Second, 0), 1) {
		t.Fatal("Speedup with fast=0 not +Inf")
	}
	if Speedup(0, 0) != 1 {
		t.Fatal("Speedup(0,0) != 1")
	}
}

func TestFormatSpeedup(t *testing.T) {
	if got := FormatSpeedup(20.63); got != "20.6x" {
		t.Fatalf("FormatSpeedup = %q", got)
	}
	if got := FormatSpeedup(math.Inf(1)); got != "infx" {
		t.Fatalf("FormatSpeedup(inf) = %q", got)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		n    uint64
		want string
	}{
		{512, "512 B"},
		{2048, "2.00 KiB"},
		{3 << 20, "3.00 MiB"},
		{5 << 30, "5.00 GiB"},
	}
	for _, tc := range cases {
		if got := FormatBytes(tc.n); got != tc.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNaNClampsToMin(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := Percentile(xs, math.NaN()); got != 1 {
		t.Errorf("Percentile(xs, NaN) = %v, want 1 (the min, like p<0)", got)
	}
}
