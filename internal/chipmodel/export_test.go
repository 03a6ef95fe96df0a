package chipmodel

import "densim/internal/units"

// AdmissMargin exposes the guard band to the package's external tests.
const AdmissMargin = admissMargin

// Bounds returns the seeded bounds of the row's k-th P-state: the highest
// ambient proven admissible and the lowest proven inadmissible.
func (r *AdmissRow) Bounds(k int) (admLE, inadGE units.Celsius) {
	return r.steps[k].admLE, r.steps[k].inadGE
}
