package workload

import (
	"math"
	"testing"

	"densim/internal/floorplan"
	"densim/internal/stats"
	"densim/internal/units"
)

func TestClassMixMembers(t *testing.T) {
	for _, c := range Classes {
		m := ClassMix(c)
		if m.Name() != c.String() {
			t.Errorf("mix name = %q", m.Name())
		}
		if len(m.Benchmarks()) != len(ByClass(c)) {
			t.Errorf("%v mix size = %d", c, len(m.Benchmarks()))
		}
	}
}

func TestNewMixRejectsEmpty(t *testing.T) {
	if _, err := NewMix("empty", nil); err == nil {
		t.Error("empty mix accepted")
	}
}

func TestMixSampleCoversAll(t *testing.T) {
	m := ClassMix(GeneralPurpose)
	rng := stats.NewRNG(3)
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		seen[m.Sample(rng).Name] = true
	}
	if len(seen) != len(m.Benchmarks()) {
		t.Errorf("sampled %d distinct benchmarks, want %d", len(seen), len(m.Benchmarks()))
	}
}

func TestArrivalRateScaling(t *testing.T) {
	m := ClassMix(Computation)
	r50 := m.ArrivalRate(180, 0.5)
	r100 := m.ArrivalRate(180, 1.0)
	if math.Abs(r100/r50-2) > 1e-9 {
		t.Errorf("rate not linear in load: %v vs %v", r50, r100)
	}
	// rate = load*sockets/meanDur: 0.5*180/0.004 = 22500 jobs/s.
	want := 0.5 * 180 / float64(m.MeanDuration())
	if math.Abs(r50-want) > 1e-6 {
		t.Errorf("rate = %v, want %v", r50, want)
	}
}

func TestArrivalRatePanics(t *testing.T) {
	m := ClassMix(Storage)
	for _, fn := range []func(){
		func() { m.ArrivalRate(0, 0.5) },
		func() { m.ArrivalRate(10, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad ArrivalRate args did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestArrivalsPoissonStatistics(t *testing.T) {
	m := ClassMix(Storage)
	rng := stats.NewRNG(11)
	a := NewArrivals(m, 180, 0.7, rng)
	const n = 50000
	prev := units.Seconds(0)
	var gaps []float64
	for i := 0; i < n; i++ {
		at, b, dur := a.Next()
		if at < prev {
			t.Fatal("arrival times not monotone")
		}
		if dur <= 0 {
			t.Fatalf("non-positive duration for %s", b.Name)
		}
		if b.Class != Storage {
			t.Fatalf("mix produced benchmark of class %v", b.Class)
		}
		gaps = append(gaps, float64(at-prev))
		prev = at
	}
	s := stats.Summarize(gaps)
	wantMean := 1 / m.ArrivalRate(180, 0.7)
	if math.Abs(s.Mean-wantMean)/wantMean > 0.03 {
		t.Errorf("mean inter-arrival = %v, want %v", s.Mean, wantMean)
	}
	// Exponential inter-arrivals: CoV ~ 1.
	if cov := s.CoV(); cov < 0.9 || cov > 1.1 {
		t.Errorf("inter-arrival CoV = %v, want ~1 (Poisson)", cov)
	}
}

func TestArrivalsZeroLoadNeverFires(t *testing.T) {
	a := NewArrivals(ClassMix(Storage), 180, 0, stats.NewRNG(1))
	if a.Peek() < 1e250 {
		t.Errorf("zero-load arrival at %v, want effectively never", a.Peek())
	}
}

func TestArrivalsDeterministic(t *testing.T) {
	mk := func() []float64 {
		a := NewArrivals(ClassMix(Computation), 180, 0.5, stats.NewRNG(77))
		var ts []float64
		for i := 0; i < 100; i++ {
			at, _, _ := a.Next()
			ts = append(ts, float64(at))
		}
		return ts
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("arrival stream not reproducible with fixed seed")
		}
	}
}

func TestBlockFractionsSumToOne(t *testing.T) {
	for _, c := range Classes {
		var sum float64
		for _, f := range BlockFractions(c) {
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%v fractions sum to %v", c, sum)
		}
	}
}

func TestBlockFractionsClassCharacter(t *testing.T) {
	coreShare := func(c Class) float64 {
		fr := BlockFractions(c)
		return fr[floorplan.BlockCore0] + fr[floorplan.BlockCore1] +
			fr[floorplan.BlockCore2] + fr[floorplan.BlockCore3]
	}
	if !(coreShare(Computation) > coreShare(GeneralPurpose) && coreShare(GeneralPurpose) > coreShare(Storage)) {
		t.Error("core power share ordering broken")
	}
	ioShare := func(c Class) float64 {
		fr := BlockFractions(c)
		return fr[floorplan.BlockIO] + fr[floorplan.BlockNB]
	}
	if ioShare(Storage) <= ioShare(Computation) {
		t.Error("storage should emphasize IO/NB power")
	}
}

func TestPowerMapFor(t *testing.T) {
	fp := floorplan.Kabini()
	b := ByClass(Computation)[0]
	pm, err := PowerMapFor(b, fp, 18)
	if err != nil {
		t.Fatal(err)
	}
	if len(pm) != len(fp.Blocks) {
		t.Fatalf("power map size %d", len(pm))
	}
	var total units.Watts
	for _, w := range pm {
		if w < 0 {
			t.Error("negative block power")
		}
		total += w
	}
	if math.Abs(float64(total)-18) > 1e-9 {
		t.Errorf("power map total = %v, want 18", total)
	}
}

func TestPowerMapForUnknownBlock(t *testing.T) {
	fp := floorplan.Floorplan{
		Name:          "alien",
		DieThicknessM: 1e-4,
		Blocks:        []floorplan.Block{{Name: "warp-core", X: 0, Y: 0, W: 1e-3, H: 1e-3}},
	}
	if _, err := PowerMapFor(Benchmarks()[0], fp, 10); err == nil {
		t.Error("unknown block accepted")
	}
}

// TestNextIndexMatchesNext: NextIndex draws from the RNG exactly as Next
// does, and both reproduce the process's defining draw order — gap at
// construction, then per arrival a uniform benchmark, its duration, and the
// next gap — rebuilt here from the public pieces.
func TestNextIndexMatchesNext(t *testing.T) {
	m := ClassMix(GeneralPurpose)
	for _, seed := range []uint64{1, 7} {
		byValue := NewArrivals(m, 720, 0.5, stats.NewRNG(seed))
		byIndex := NewArrivals(m, 720, 0.5, stats.NewRNG(seed))
		refRNG := stats.NewRNG(seed)
		gap := stats.Exponential{Mean: 1 / m.ArrivalRate(720, 0.5)}
		refAt := units.Seconds(gap.Sample(refRNG))
		for k := 0; k < 20000; k++ {
			at, b, dur := byValue.Next()
			iat, i, idur := byIndex.NextIndex()
			refB := m.Sample(refRNG)
			refDur := refB.SampleDuration(refRNG)
			if at != iat || b != m.Benchmarks()[i] || dur != idur {
				t.Fatalf("seed %d draw %d: Next = (%v, %s, %v), NextIndex = (%v, %s, %v)",
					seed, k, at, b.Name, dur, iat, m.Benchmarks()[i].Name, idur)
			}
			if at != refAt || b != refB || dur != refDur {
				t.Fatalf("seed %d draw %d: Next = (%v, %s, %v), reference draw order gives (%v, %s, %v)",
					seed, k, at, b.Name, dur, refAt, refB.Name, refDur)
			}
			refAt += units.Seconds(gap.Sample(refRNG))
		}
	}
}
