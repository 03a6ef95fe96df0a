package sched

import (
	"math"
	"testing"

	"densim/internal/chipmodel"
	"densim/internal/geometry"
	"densim/internal/workload"
)

// TestLadderCurveMatchesBenchmark checks the resolved curve against the
// benchmark it was resolved from: for every catalog benchmark, as measured
// and scaled to a 45 W part, the curve's dynamic power and performance at
// each P-state are bit-equal to DynamicPowerAt and RelPerf there, and a
// second lookup returns the interned curve.
func TestLadderCurveMatchesBenchmark(t *testing.T) {
	srv := geometry.SUT()
	leak := make([]chipmodel.Leakage, srv.NumSockets())
	for i := range leak {
		leak[i] = chipmodel.NewLeakage(workload.TDP)
	}
	ls := NewLadderSearch(srv, leak)
	for _, b := range workload.Benchmarks() {
		for _, bm := range []workload.Benchmark{b, b.ScaleTo(45)} {
			c := ls.Curve(&bm)
			for k, f := range chipmodel.Frequencies {
				if got, want := c.Dyn(k), bm.DynamicPowerAt(f); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
					t.Errorf("%s (%v TDP) at %v: curve power %v, DynamicPowerAt %v", bm.Name, bm.TDPW(), f, got, want)
				}
				if got, want := c.Perf(k), bm.RelPerf(f); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s (%v TDP) at %v: curve performance %v, RelPerf %v", bm.Name, bm.TDPW(), f, got, want)
				}
			}
			copied := bm
			if ls.Curve(&copied) != c {
				t.Errorf("%s (%v TDP): a second lookup resolved a new curve", bm.Name, bm.TDPW())
			}
		}
	}
	if want := 2 * len(workload.Benchmarks()); len(ls.curves) != want {
		t.Errorf("search holds %d curves, want %d", len(ls.curves), want)
	}
}
