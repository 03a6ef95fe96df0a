package chipmodel_test

import (
	"math"
	"testing"

	"densim/internal/chipmodel"
	"densim/internal/units"
	"densim/internal/workload"
)

// TestLeakageAtNeverExceedsMax sweeps chip temperatures from -200C to
// 1e4C, and +Inf, for the platform TDP and the parts ScaleTo bins at 18,
// 30 and 45 W, and asserts that At never exceeds Max and reaches it
// exactly once clamped: CP bounds a candidate's injected heat by Max in
// place of its predicted leakage, which is exact only if no temperature
// draws more.
func TestLeakageAtNeverExceedsMax(t *testing.T) {
	b := workload.Benchmarks()[0]
	tdps := []units.Watts{workload.TDP}
	for _, w := range []units.Watts{18, 30, 45} {
		tdps = append(tdps, b.ScaleTo(w).TDPW())
	}
	for _, tdp := range tdps {
		leak := chipmodel.NewLeakage(tdp)
		max := leak.Max()
		temps := []units.Celsius{units.Celsius(math.Inf(1))}
		for c := units.Celsius(-200); c <= 1e4; c += 0.25 {
			temps = append(temps, c)
		}
		for _, c := range temps {
			if got := leak.At(c); got > max {
				t.Fatalf("TDP %v: At(%v) = %v exceeds Max %v", tdp, c, got, max)
			}
		}
		if got := leak.At(units.Celsius(math.Inf(1))); got != max {
			t.Errorf("TDP %v: At(+Inf) = %v, want the clamp %v", tdp, got, max)
		}
		if got := leak.At(1e4); got != max {
			t.Errorf("TDP %v: At(1e4) = %v, want the clamp %v", tdp, got, max)
		}
	}
}
