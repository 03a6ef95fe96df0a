package chipmodel

import "densim/internal/units"

// AdmissMargin exposes the guard band to the package's external tests.
const AdmissMargin = admissMargin

// Bounds returns the bounds the row's k-th P-state was seeded from: the
// highest ambient proven admissible and the lowest proven inadmissible.
// The bisection is deterministic, so running it again returns them.
func (r *AdmissRow) Bounds(k int) (admLE, inadGE units.Celsius) {
	return r.bisect(r.steps[k].dynW)
}
