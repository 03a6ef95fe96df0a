package main

import "testing"

// The steadiness verdicts must compute spreads exactly as Python's
// statistics.quantiles(xs, n=4) does; the wants are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 9}, 1, 5, 9},
		{[]float64{3, 1}, 0.5, 2, 3.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "run", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "step", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "step", Start: 50, End: 70},
	}}
	self := tr.selfTimes()
	if self["run"] != 50 || self["step"] != 50 {
		t.Errorf("self times %v, want run 50 and step 50", self)
	}
}
