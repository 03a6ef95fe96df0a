package chipmodel

import (
	"testing"

	"densim/internal/units"
)

// quadraticPower is a representative dynamic-power curve, one power per
// P-state: P scales roughly with f*V^2 and V scales with f, so ~cubic in f,
// normalized to peak watts at 1900 MHz.
func quadraticPower(peak units.Watts) []units.Watts {
	dyn := make([]units.Watts, len(Frequencies))
	for k, f := range Frequencies {
		r := float64(f) / float64(FMax)
		dyn[k] = units.Watts(float64(peak) * r * r * r)
	}
	return dyn
}

func TestLadderShape(t *testing.T) {
	if len(Frequencies) != 5 {
		t.Fatalf("ladder has %d states, want 5", len(Frequencies))
	}
	for i := 1; i < len(Frequencies); i++ {
		if Frequencies[i]-Frequencies[i-1] != 200 {
			t.Errorf("step %d->%d is not 200MHz", i-1, i)
		}
	}
	if Frequencies[0] != FMin || Frequencies[len(Frequencies)-1] != FMax {
		t.Error("ladder endpoints mismatch")
	}
}

func TestIsBoost(t *testing.T) {
	boost := map[units.MHz]bool{1100: false, 1300: false, 1500: false, 1700: true, 1900: true}
	for f, want := range boost {
		if IsBoost(f) != want {
			t.Errorf("IsBoost(%v) = %v, want %v", f, !want, want)
		}
	}
}

func TestFreqIndex(t *testing.T) {
	for i, f := range Frequencies {
		got, err := FreqIndex(f)
		if err != nil || got != i {
			t.Errorf("FreqIndex(%v) = %d, %v", f, got, err)
		}
	}
	if _, err := FreqIndex(1234); err == nil {
		t.Error("FreqIndex(1234) did not error")
	}
}

func TestPickFrequencyCoolAmbientBoosts(t *testing.T) {
	// At a cool inlet-level ambient a light job can boost to 1900.
	leak := NewLeakage(22)
	f := PickFrequency(18, quadraticPower(10), Sink30Fin, leak)
	if f != 1900 {
		t.Errorf("cool ambient picked %v, want 1900MHz", f)
	}
}

func TestPickFrequencyHotAmbientThrottles(t *testing.T) {
	leak := NewLeakage(22)
	fCool := PickFrequency(18, quadraticPower(18), Sink18Fin, leak)
	fHot := PickFrequency(55, quadraticPower(18), Sink18Fin, leak)
	if fHot >= fCool {
		t.Errorf("hot ambient %v should throttle below cool ambient %v", fHot, fCool)
	}
}

func TestPickFrequencyFloorsAtFMin(t *testing.T) {
	// Even an impossible thermal situation returns FMin, never stops.
	leak := NewLeakage(22)
	f := PickFrequency(94, quadraticPower(18), Sink18Fin, leak)
	if f != FMin {
		t.Errorf("overheated pick = %v, want %v", f, FMin)
	}
}

func TestPickRespectesSinkAsymmetry(t *testing.T) {
	// At the same warm ambient and power curve, the 30-fin socket must be
	// able to run at least as fast as the 18-fin socket — the asymmetry the
	// CP scheduler exploits.
	leak := NewLeakage(22)
	for amb := units.Celsius(30); amb <= 60; amb += 5 {
		f18 := PickFrequency(amb, quadraticPower(18), Sink18Fin, leak)
		f30 := PickFrequency(amb, quadraticPower(18), Sink30Fin, leak)
		if f30 < f18 {
			t.Errorf("amb %v: 30-fin %v slower than 18-fin %v", amb, f30, f18)
		}
	}
}

func TestThrottleLadderAcrossAmbient(t *testing.T) {
	// Section III-D: boost states are opportunistic; a fully loaded socket
	// sustains 1500MHz only under the elevated ambient temperatures that
	// thermally-coupled downstream sockets actually see (the Equation-1
	// threshold for losing the 1900MHz boost with Computation-class power on
	// the 18-fin sink is ~58C ambient). Computation-class dynamic power is
	// ~11.4W at 1900MHz (Fig. 7's 18W at 90C minus the 6.6W leakage).
	leak := NewLeakage(22)
	dyn := quadraticPower(11.4)
	if f := PickFrequency(18, dyn, Sink18Fin, leak); f != 1900 {
		t.Errorf("inlet-ambient pick = %v, want 1900MHz boost", f)
	}
	if f := PickFrequency(62, dyn, Sink18Fin, leak); f >= 1900 {
		t.Errorf("62C-ambient pick = %v, want below 1900MHz", f)
	}
	if f := PickFrequency(67, dyn, Sink18Fin, leak); f > MaxSustained {
		t.Errorf("67C-ambient pick = %v, want at most %v", f, MaxSustained)
	}
	// The ladder must descend monotonically with ambient.
	prev := FMax
	for amb := units.Celsius(18); amb <= 90; amb += 1 {
		f := PickFrequency(amb, dyn, Sink18Fin, leak)
		if f > prev {
			t.Fatalf("frequency rose with ambient at %v: %v > %v", amb, f, prev)
		}
		prev = f
	}
}

func TestPredictFrequencyAgreesWithPick(t *testing.T) {
	// The cheap scheduler predictor should agree with the exact picker at
	// nearly all operating points (they may differ by at most one bin at a
	// knife edge).
	leak := NewLeakage(22)
	disagreements := 0
	total := 0
	for amb := units.Celsius(18); amb <= 60; amb += 2 {
		for _, peak := range []units.Watts{10.5, 14, 18} {
			total++
			a := PickFrequency(amb, quadraticPower(peak), Sink18Fin, leak)
			b := PredictFrequency(amb, quadraticPower(peak), Sink18Fin, leak)
			if a != b {
				disagreements++
				if d := float64(a - b); d > 200 || d < -200 {
					t.Errorf("amb %v peak %v: pick %v vs predict %v differ by >1 bin", amb, peak, a, b)
				}
			}
		}
	}
	if disagreements > total/5 {
		t.Errorf("predictor disagreed with picker on %d/%d points", disagreements, total)
	}
}

func TestCapIndex(t *testing.T) {
	cases := []struct {
		cap  units.MHz
		want int
	}{
		{1900, 4}, {1800, 3}, {1700, 3}, {1500, 2}, {1100, 0}, {1000, -1}, {5000, 4},
	}
	for _, c := range cases {
		if got := CapIndex(c.cap); got != c.want {
			t.Errorf("CapIndex(%v) = %d, want %d", c.cap, got, c.want)
		}
	}
}

func TestHighestAdmissibleMatchesLinearScan(t *testing.T) {
	// For every monotone admissibility profile over the 5-state ladder and
	// every cap index, the search must agree with the reference top-down
	// linear scan.
	n := len(Frequencies)
	for threshold := 0; threshold <= n; threshold++ {
		// admit(i) holds iff i < threshold (threshold == 0: none admissible).
		admit := func(i int) bool { return i < threshold }
		for maxIdx := -1; maxIdx < n; maxIdx++ {
			want := -1
			for i := maxIdx; i >= 0; i-- {
				if admit(i) {
					want = i
					break
				}
			}
			if got := HighestAdmissible(maxIdx, admit); got != want {
				t.Errorf("threshold %d maxIdx %d: got %d, want %d", threshold, maxIdx, got, want)
			}
		}
	}
}

func TestStepWithGainMatchesStep(t *testing.T) {
	f := FirstOrder{Tau: 30}
	for _, dt := range []units.Seconds{-1, 0, 0.001, 0.5, 30, 1e4} {
		k := f.Gain(dt)
		for _, pair := range [][2]units.Celsius{{18, 95}, {95, 18}, {40, 40}, {-5, 120}} {
			want := f.Step(pair[0], pair[1], dt)
			if got := StepWithGain(pair[0], pair[1], k); got != want {
				t.Errorf("dt=%v %v->%v: StepWithGain = %v, Step = %v", dt, pair[0], pair[1], got, want)
			}
		}
	}
	if k := f.Gain(0); k != 0 {
		t.Errorf("Gain(0) = %v, want 0", k)
	}
}
