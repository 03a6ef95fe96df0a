package chipmodel

import (
	"fmt"

	"densim/internal/units"
)

// The DVFS ladder of the AMD Opteron X2150-class part (Table III /
// Section III-D): 1.1 GHz to 1.9 GHz in 200 MHz steps. The top two states
// are boost states used opportunistically when thermal headroom exists; a
// fully loaded socket at reasonable ambient sustains 1500 MHz.
var (
	// Frequencies lists the P-states from slowest to fastest.
	Frequencies = []units.MHz{1100, 1300, 1500, 1700, 1900}
	// MaxSustained is the highest non-boost frequency.
	MaxSustained units.MHz = 1500
	// FMax is the top boost frequency; performance is reported relative
	// to it.
	FMax units.MHz = 1900
	// FMin is the floor frequency a busy socket never drops below.
	FMin units.MHz = 1100
)

// IsBoost reports whether f is one of the opportunistic boost states.
func IsBoost(f units.MHz) bool { return f > MaxSustained }

// FreqIndex returns the ladder index of f, or an error if f is not a
// P-state.
func FreqIndex(f units.MHz) (int, error) {
	for i, v := range Frequencies {
		if v == f {
			return i, nil
		}
	}
	return 0, fmt.Errorf("chipmodel: %v is not a P-state", f)
}

// CapIndex returns the index of the highest P-state at or below cap, or -1
// if even FMin exceeds cap. The ladder has five entries, so a descending
// scan is already optimal.
func CapIndex(cap units.MHz) int {
	for i := len(Frequencies) - 1; i >= 0; i-- {
		if Frequencies[i] <= cap {
			return i
		}
	}
	return -1
}

// HighestAdmissible returns the largest index i in [0, maxIdx] for which
// admit(i) holds, or -1 if none does. admit must be monotone over the
// ladder: if a frequency is admissible, every lower frequency is too (true
// for the thermal predicates, since predicted peak temperature increases
// with dynamic power and hence with frequency).
//
// It exploits that monotonicity: the top of the ladder is probed first —
// the common case is an unthrottled socket — and only on failure does it
// binary-search the remainder, so a throttled pick costs O(log n) predicate
// evaluations instead of the linear top-down scan's O(n).
func HighestAdmissible(maxIdx int, admit func(int) bool) int {
	if maxIdx < 0 {
		return -1
	}
	if admit(maxIdx) {
		return maxIdx
	}
	// Invariant: every index > hi is inadmissible; answer is in [lo, hi]
	// if any index is admissible at all.
	lo, hi := 0, maxIdx-1
	if hi < 0 || !admit(0) {
		return -1
	}
	// admit(0) holds, so the answer is the largest admissible index in
	// [lo, hi] (lo = 0 stays admissible throughout).
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if admit(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// PickFrequency implements the power-management policy of Section III-D:
// run at the highest frequency (including boost) whose self-consistent
// Equation-1 peak temperature stays below the 95C limit. If even the lowest
// frequency violates the limit the lowest frequency is returned — the chip
// cannot stop, it only throttles (the paper's systems never gate busy
// sockets). dyn[k] is the job's dynamic power at Frequencies[k].
func PickFrequency(ambient units.Celsius, dyn []units.Watts, sink Sink, leak Leakage) units.MHz {
	i := HighestAdmissible(len(Frequencies)-1, func(i int) bool {
		temp, _ := SolvePeak(ambient, dyn[i], sink, leak)
		return temp <= TempLimit
	})
	if i < 0 {
		return FMin
	}
	return Frequencies[i]
}

// PredictFrequency is the scheduler-side equivalent of PickFrequency using
// the cheap two-step leakage compensation of Section IV-C rather than the
// exact fixed point. Schedulers use it to estimate how fast a job would run
// on a candidate socket. dyn is as for PickFrequency.
func PredictFrequency(ambient units.Celsius, dyn []units.Watts, sink Sink, leak Leakage) units.MHz {
	i := HighestAdmissible(len(Frequencies)-1, func(i int) bool {
		return PredictTwoStep(ambient, dyn[i], sink, leak) <= TempLimit
	})
	if i < 0 {
		return FMin
	}
	return Frequencies[i]
}
