package chipmodel_test

import (
	"math"
	"testing"

	"densim/internal/chipmodel"
	"densim/internal/units"
	"densim/internal/workload"
)

// TestAdmissRowMatchesPredicate checks every verdict an AdmissRow gives
// against a fresh PredictTwoStep comparison where verdicts are hardest to
// get right: at each seeded bound exactly, one ulp either side, one guard
// band either side, and inside the band. It covers the whole catalog, as
// measured and scaled to 18, 30 and 45 W parts, on both heat sinks, and
// compares both single verdicts and Index(top, amb) for every top against
// HighestAdmissible over the fresh predicate.
func TestAdmissRowMatchesPredicate(t *testing.T) {
	var benches []workload.Benchmark
	for _, b := range workload.Benchmarks() {
		benches = append(benches, b, b.ScaleTo(18), b.ScaleTo(30), b.ScaleTo(45))
	}
	sinks := []chipmodel.Sink{chipmodel.Sink18Fin, chipmodel.Sink30Fin}
	top := len(chipmodel.Frequencies) - 1
	m := chipmodel.AdmissMargin
	banded := 0
	for _, b := range benches {
		leak := chipmodel.NewLeakage(b.TDPW())
		for _, sink := range sinks {
			dyn := make([]units.Watts, len(chipmodel.Frequencies))
			for k, f := range chipmodel.Frequencies {
				dyn[k] = b.DynamicPowerAt(f)
			}
			row := chipmodel.NewAdmissRow(dyn, sink, leak)
			admit := func(k int, amb units.Celsius) bool {
				return chipmodel.PredictTwoStep(amb, b.DynamicPowerAt(chipmodel.Frequencies[k]), sink, leak) <= chipmodel.TempLimit
			}
			var ambs []units.Celsius
			for k := 0; k <= top; k++ {
				admLE, inadGE := row.Bounds(k)
				if !math.IsInf(float64(admLE), 0) && !math.IsInf(float64(inadGE), 0) {
					ambs = append(ambs, admLE+(inadGE-admLE)/2)
					banded++
				}
				for _, a := range []units.Celsius{admLE, inadGE} {
					if math.IsInf(float64(a), 0) {
						continue
					}
					ambs = append(ambs, a, a-m, a+m,
						units.Celsius(math.Nextafter(float64(a), math.Inf(-1))),
						units.Celsius(math.Nextafter(float64(a), math.Inf(1))))
				}
			}
			for _, amb := range ambs {
				for k := 0; k <= top; k++ {
					if got, want := row.Admit(k, amb), admit(k, amb); got != want {
						t.Errorf("%s on %v at %v C: P-state %d admissible = %v, fresh prediction %v", b.Name, sink, amb, k, got, want)
					}
				}
				for tp := -1; tp <= top; tp++ {
					want := chipmodel.HighestAdmissible(tp, func(k int) bool { return admit(k, amb) })
					if got := row.Index(tp, amb); got != want {
						t.Errorf("%s on %v at %v C: Index(%d) = %d, fresh search %d", b.Name, sink, amb, tp, got, want)
					}
				}
			}
		}
	}
	if banded == 0 {
		t.Fatal("no P-state's boundary lies in the bisection domain; the probes test nothing")
	}
}
