package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestExponentialMean(t *testing.T) {
	r := NewRNG(1)
	d := Exponential{Mean: 2.5}
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	if mean := sum / n; math.Abs(mean-2.5) > 0.05 {
		t.Errorf("exponential mean = %v, want ~2.5", mean)
	}
}

func TestLognormalMoments(t *testing.T) {
	r := NewRNG(2)
	for _, tc := range []Lognormal{
		{Mean: 0.004, CoV: 1.5},
		{Mean: 1, CoV: 0.3},
		{Mean: 10, CoV: 3},
	} {
		const n = 300000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := tc.Sample(r)
			if v <= 0 {
				t.Fatalf("lognormal variate non-positive: %v", v)
			}
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		sd := math.Sqrt(sumSq/n - mean*mean)
		if math.Abs(mean-tc.Mean)/tc.Mean > 0.05 {
			t.Errorf("Lognormal%+v mean = %v", tc, mean)
		}
		cov := sd / mean
		if math.Abs(cov-tc.CoV)/tc.CoV > 0.1 {
			t.Errorf("Lognormal%+v CoV = %v", tc, cov)
		}
	}
}

func TestLognormalHeavyTail(t *testing.T) {
	// Figure 6: maximum job durations ~2 orders of magnitude above the mean.
	// A CoV around 2-3 gives a p99.99 roughly 50-200x the mean.
	d := Lognormal{Mean: 0.003, CoV: 2.5}
	q := d.Quantile(0.9999)
	ratio := q / d.Mean
	if ratio < 30 || ratio > 500 {
		t.Errorf("p99.99/mean = %v, want within [30,500] (two orders of magnitude)", ratio)
	}
}

func TestLognormalQuantileMonotone(t *testing.T) {
	d := Lognormal{Mean: 5, CoV: 1}
	prev := 0.0
	for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		q := d.Quantile(p)
		if q <= prev {
			t.Fatalf("quantile not monotone at p=%v: %v <= %v", p, q, prev)
		}
		prev = q
	}
}

func TestLognormalMedian(t *testing.T) {
	d := Lognormal{Mean: 2, CoV: 0.8}
	mu, _ := d.params()
	med := d.Quantile(0.5)
	if math.Abs(med-math.Exp(mu)) > 1e-6*math.Exp(mu) {
		t.Errorf("median = %v, want exp(mu) = %v", med, math.Exp(mu))
	}
}

func TestErfinvInverse(t *testing.T) {
	f := func(x float64) bool {
		x = math.Mod(math.Abs(x), 0.999)
		if math.IsNaN(x) {
			return true
		}
		y := erfinv(x)
		return math.Abs(math.Erf(y)-x) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestErfinvSymmetry(t *testing.T) {
	for _, x := range []float64{0.1, 0.5, 0.9, 0.99} {
		if got, want := erfinv(-x), -erfinv(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("erfinv(-%v) = %v, want %v", x, got, want)
		}
	}
}

// TestLognormalSamplerMatchesDefinition: the resolved sampler draws exactly
// the value the per-draw definition exp(mu + sigma*N) gives, from the same
// RNG call, so resolving the parameters once moves no arrival stream.
func TestLognormalSamplerMatchesDefinition(t *testing.T) {
	for _, d := range []Lognormal{{Mean: 0.004, CoV: 0.27}, {Mean: 2, CoV: 0.8}, {Mean: 1, CoV: 2.5}} {
		sp := d.Sampler()
		r, ref, viaDist := NewRNG(5), NewRNG(5), NewRNG(5)
		for i := 0; i < 10000; i++ {
			sigma2 := math.Log(1 + d.CoV*d.CoV)
			want := math.Exp(math.Log(d.Mean) - sigma2/2 + math.Sqrt(sigma2)*ref.NormFloat64())
			if got := sp.Sample(r); got != want {
				t.Fatalf("Lognormal%+v draw %d: sampler %v, definition %v", d, i, got, want)
			}
			if got := d.Sample(viaDist); got != want {
				t.Fatalf("Lognormal%+v draw %d: Sample %v, definition %v", d, i, got, want)
			}
		}
	}
}

func TestQuantilePanics(t *testing.T) {
	d := Lognormal{Mean: 1, CoV: 1}
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%v) did not panic", p)
				}
			}()
			d.Quantile(p)
		}()
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(3)
	u := Uniform{Lo: -2, Hi: 5}
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := u.Sample(r)
		if v < -2 || v >= 5 {
			t.Fatalf("uniform out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1.5) > 0.05 {
		t.Errorf("uniform mean = %v, want ~1.5", mean)
	}
}
