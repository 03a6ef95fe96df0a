// Package chipmodel implements the paper's simplified peak-temperature model
// (Equation 1) together with the supporting pieces from Table III: the
// empirical theta correction per heat sink, the temperature-dependent
// leakage model, the DVFS ladder with boost states, and the first-order
// transient responses (5 ms on-chip, 30 s socket).
//
//	T_peak = T_amb + Power*(R_int + R_ext) + theta(Power, Sink)   (Eq. 1)
//
// The model deliberately ignores lateral on-die resistance — the paper shows
// (and internal/hotspot confirms) that the small ~100 mm^2 die keeps on-die
// differences within a few degrees, so a lumped vertical path plus a linear
// correction tracks the detailed model within 2C (Figure 10).
package chipmodel

import (
	"fmt"
	"math"

	"densim/internal/units"
)

// Sink selects which of the cartridge's two heat sinks a socket has.
type Sink int

// The two heat sinks of the M700-class cartridge.
const (
	Sink18Fin Sink = iota // upstream sockets: fewer fins
	Sink30Fin             // downstream sockets: denser array, better R_ext
)

// String implements fmt.Stringer.
func (s Sink) String() string {
	switch s {
	case Sink18Fin:
		return "18-fin"
	case Sink30Fin:
		return "30-fin"
	default:
		return fmt.Sprintf("Sink(%d)", int(s))
	}
}

// Table III constants.
const (
	// RInt is the chip internal thermal resistance in C/W.
	RInt = 0.205
	// RExt18 and RExt30 are the heatsink external resistances in C/W.
	RExt18 = 1.578
	RExt30 = 1.056
	// TempLimit is the throttling limit in Celsius (Table III: 95C).
	TempLimit units.Celsius = 95
	// LeakageRefTemp is the temperature at which leakage is specified.
	LeakageRefTemp units.Celsius = 90
	// LeakageFracAtRef: leakage is 30% of TDP at the 90C reference.
	LeakageFracAtRef = 0.30
	// GatedPowerFrac: power-gated idle sockets still draw 10% of TDP.
	GatedPowerFrac = 0.10
	// ChipTimeConstant and SocketTimeConstant are the transient taus.
	ChipTimeConstant   units.Seconds = 0.005
	SocketTimeConstant units.Seconds = 30
)

// RExt returns the external resistance for the sink.
func (s Sink) RExt() float64 {
	if s == Sink30Fin {
		return RExt30
	}
	return RExt18
}

// Theta returns the empirical linear correction theta(Power, Sink) from
// Table III: 4.41 - 0.0896*P for the 18-fin sink and 4.45 - 0.0916*P for the
// 30-fin sink.
func (s Sink) Theta(power units.Watts) units.Celsius {
	if s == Sink30Fin {
		return units.Celsius(4.45 - float64(power)*0.0916)
	}
	return units.Celsius(4.41 - float64(power)*0.0896)
}

// PeakTemp evaluates Equation 1 for a total (dynamic + leakage) power.
func PeakTemp(ambient units.Celsius, power units.Watts, sink Sink) units.Celsius {
	rise := float64(power)*(RInt+sink.RExt()) + float64(sink.Theta(power))
	return ambient + units.Celsius(rise)
}

// Leakage models temperature-dependent leakage power: L(T) = L_ref *
// exp(alpha*(T - T_ref)), anchored at 30% of TDP at 90C, clamped to
// [0, Cap*L_ref]. The exponential captures the super-linear growth of
// subthreshold leakage; alpha = ln(2)/25 doubles leakage every 25C.
type Leakage struct {
	TDP   units.Watts
	Alpha float64 // per Celsius
	Cap   float64 // multiple of reference leakage
}

// NewLeakage returns the paper-calibrated leakage model for a TDP.
func NewLeakage(tdp units.Watts) Leakage {
	return Leakage{TDP: tdp, Alpha: math.Ln2 / 25, Cap: 2}
}

// At returns leakage power at chip temperature t, clamped at Max.
func (l Leakage) At(t units.Celsius) units.Watts {
	w := LeakageFracAtRef * float64(l.TDP) * math.Exp(l.Alpha*float64(t-LeakageRefTemp))
	if max := float64(l.Max()); w > max {
		w = max
	}
	return units.Watts(w)
}

// Max returns the clamp of At, Cap times the reference leakage: no chip
// temperature draws more, so it bounds the leakage of any prediction.
func (l Leakage) Max() units.Watts {
	return units.Watts(LeakageFracAtRef * float64(l.TDP) * l.Cap)
}

// SolvePeak finds the self-consistent (peak temperature, total power) pair
// for a given dynamic power: leakage depends on temperature, which depends
// on total power. Fixed-point iteration converges in a few steps because
// d(leakage)/dT * dT/d(power) << 1 for these resistances.
func SolvePeak(ambient units.Celsius, dynamic units.Watts, sink Sink, leak Leakage) (units.Celsius, units.Watts) {
	temp := PeakTemp(ambient, dynamic, sink)
	total := dynamic
	for i := 0; i < 8; i++ {
		total = dynamic + leak.At(temp)
		next := PeakTemp(ambient, total, sink)
		if math.Abs(float64(next-temp)) < 1e-6 {
			return next, total
		}
		temp = next
	}
	return temp, total
}

// PredictTwoStep mirrors the scheduler's cheap prediction from Section IV-C:
// estimate an initial chip temperature with Equation 1, update power by
// compensating for temperature-dependent leakage once, and predict the final
// chip temperature with Equation 1 again.
func PredictTwoStep(ambient units.Celsius, dynamic units.Watts, sink Sink, leak Leakage) units.Celsius {
	first := PeakTemp(ambient, dynamic, sink)
	total := dynamic + leak.At(first)
	return PeakTemp(ambient, total, sink)
}

// FirstOrder advances an exponential first-order response: the state decays
// toward target with time constant Tau.
type FirstOrder struct {
	Tau units.Seconds
}

// Step returns the state after dt given the current value and the target.
func (f FirstOrder) Step(current, target units.Celsius, dt units.Seconds) units.Celsius {
	return StepWithGain(current, target, f.Gain(dt))
}

// Gain returns the blend factor 1 - exp(-dt/Tau) of one step. The factor
// depends only on dt, so fixed-period callers (the simulator's power-manager
// tick) hoist it out of their per-socket loops and advance with
// StepWithGain, eliminating one math.Exp per state per tick.
func (f FirstOrder) Gain(dt units.Seconds) float64 {
	if dt <= 0 {
		return 0
	}
	return 1 - math.Exp(-float64(dt)/float64(f.Tau))
}

// StepWithGain advances a first-order response using a gain precomputed by
// Gain for the step's dt. StepWithGain(c, t, f.Gain(dt)) == f.Step(c, t, dt).
func StepWithGain(current, target units.Celsius, gain float64) units.Celsius {
	return current + units.Celsius(gain)*(target-current)
}

// ChipResponse and SocketResponse are the two transient paths of Table III.
func ChipResponse() FirstOrder { return FirstOrder{Tau: ChipTimeConstant} }

// SocketResponse returns the 30-second socket/ambient response.
func SocketResponse() FirstOrder { return FirstOrder{Tau: SocketTimeConstant} }
