package chipmodel

import (
	"math"

	"densim/internal/units"
)

// AdmissRow answers the P-state admissibility predicate
//
//	PredictTwoStep(ambient, dyn[k], sink, leak) <= TempLimit
//
// for one power curve dyn, the dynamic power at each P-state, under one
// (sink, leakage) pair, at any ambient and ladder index k. The predicate is the simulator's hottest math.Exp
// call site — the power manager's pick and Predictive's and CP's frequency
// predictions all probe it — yet its boundary is fixed once the curve, the
// sink and the leakage are: in real arithmetic the predicted temperature is
// strictly increasing in ambient with slope >= 1 (PeakTemp adds a
// power-dependent rise whose net power coefficient RInt+RExt-|dTheta/dP| is
// positive, and leakage grows with temperature), so each P-state's
// admissible ambients are downward-closed. NewAdmissRow locates every
// P-state's boundary once by bisection, and a probe is then decided by the
// bisection's bounds:
//
//   - Guard band: floating-point evaluation tracks the real function to
//     well under 1e-9 C here, so a bound's verdict is reused across the
//     inequality only when the ambient clears it by admissMargin — six
//     orders of magnitude wider than the worst rounding jitter.
//   - Inside the ~2e-6 C band around the boundary the probe runs a fresh
//     PredictTwoStep (on a bound itself too: the predicate is a pure
//     function, so it returns the verdict the bisection evaluated there).
//
// Every verdict is therefore exactly what a fresh comparison returns, which
// is what lets the bit-exactness oracles (golden digests, the engine
// equivalence matrix) hold with rows in the loop. A row is read-only once
// built.
type AdmissRow struct {
	sink  Sink
	leak  Leakage
	steps []admissStep
}

// admissStep is one P-state of a row: its dynamic power and the limits
// beyond which Admit trusts the bisection's bounds, lo below the highest
// ambient the bisection proved admissible (-Inf for none) and hi above the
// lowest it proved inadmissible (+Inf for none), each by admissMargin.
type admissStep struct {
	dynW   units.Watts
	lo, hi units.Celsius
}

// admissMargin is the guard band for reusing a bound's verdict at another
// ambient. The predicate's float evaluation jitters by at most a few ulps
// of ~100C quantities (~1e-12 C); a verdict is reused only beyond this far
// wider margin.
const admissMargin units.Celsius = 1e-6

// NewAdmissRow seeds the row of power curve dyn under sink and leak: about
// fifty PredictTwoStep evaluations per P-state, after which nearly every
// probe is decided without one.
func NewAdmissRow(dyn []units.Watts, sink Sink, leak Leakage) AdmissRow {
	r := AdmissRow{sink: sink, leak: leak, steps: make([]admissStep, len(Frequencies))}
	for k := range r.steps {
		s := &r.steps[k]
		s.dynW = dyn[k]
		admLE, inadGE := r.bisect(s.dynW)
		s.lo, s.hi = admLE-admissMargin, inadGE+admissMargin
	}
	return r
}

// bisect locates the admissibility boundary of dynW: the highest ambient
// it proves admissible and the lowest it proves inadmissible. Each step is
// an ordinary fresh evaluation at a concrete ambient, so both bounds are
// proven verdicts. The ambient domain has generous slack: real runs live
// in roughly [inlet, TempLimit]; outside [-200, 400] the verdicts are
// constant and the one-sided bound still decides every in-range probe.
func (r *AdmissRow) bisect(dynW units.Watts) (admLE, inadGE units.Celsius) {
	admit := func(a units.Celsius) bool {
		return PredictTwoStep(a, dynW, r.sink, r.leak) <= TempLimit
	}
	lo, hi := units.Celsius(-200), units.Celsius(400)
	inf := units.Celsius(math.Inf(1))
	if admit(hi) {
		return hi, inf
	}
	if !admit(lo) {
		return -inf, lo
	}
	for hi-lo > admissMargin/4 {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break
		}
		if admit(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, hi
}

// Admit reports whether P-state k is admissible at ambient amb: decided by
// the seeded bounds outside the guard band, by a fresh PredictTwoStep in
// it. It inlines (go build -gcflags=-m), so a probe the bounds decide costs
// its caller no call.
func (r *AdmissRow) Admit(k int, amb units.Celsius) bool {
	s := r.steps[k]
	return amb <= s.lo || amb < s.hi && r.fresh(k, amb)
}

// fresh evaluates the predicate for P-state k at ambient amb. It is kept
// out of line: inlined, it would push Admit over the inlining budget.
//
//go:noinline
func (r *AdmissRow) fresh(k int, amb units.Celsius) bool {
	return PredictTwoStep(amb, r.steps[k].dynW, r.sink, r.leak) <= TempLimit
}

// Index returns the highest P-state index at or below top that is
// admissible at ambient amb, -1 when none is (or top < 0): exactly
// HighestAdmissible(top, ...) over the fresh predicate, since admissibility
// is monotone over the ladder. It scans down from top, which an
// unthrottled socket confirms in one probe.
func (r *AdmissRow) Index(top int, amb units.Celsius) int {
	k := top
	for k >= 0 && !r.Admit(k, amb) {
		k--
	}
	return k
}
