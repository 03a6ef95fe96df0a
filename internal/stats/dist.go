package stats

import (
	"fmt"
	"math"
)

// Exponential is an exponential distribution with the given mean, used for
// Poisson inter-arrival times in the load generator.
type Exponential struct {
	Mean float64
}

// Sample draws one variate.
func (e Exponential) Sample(r *RNG) float64 {
	return e.Mean * r.ExpFloat64()
}

// Lognormal is a lognormal distribution parameterized by the mean and the
// coefficient of variation of the *resulting* values (not of the underlying
// normal), which is the natural way to express the paper's Figure 6 numbers:
// "average job durations on the order of a few msec" with maxima "almost two
// orders of magnitude higher".
type Lognormal struct {
	// Mean is E[X].
	Mean float64
	// CoV is the coefficient of variation StdDev[X]/E[X].
	CoV float64
}

// mu and sigma of the underlying normal.
func (l Lognormal) params() (mu, sigma float64) {
	sigma2 := math.Log(1 + l.CoV*l.CoV)
	sigma = math.Sqrt(sigma2)
	mu = math.Log(l.Mean) - sigma2/2
	return mu, sigma
}

// Sample draws one variate.
func (l Lognormal) Sample(r *RNG) float64 { return l.Sampler().Sample(r) }

// LognormalSampler is a Lognormal with the underlying normal's parameters
// resolved once, for callers that draw from one distribution repeatedly.
type LognormalSampler struct {
	mu, sigma float64
}

// Sampler resolves the distribution's parameters (two logarithms and a
// square root) for repeated draws.
func (l Lognormal) Sampler() LognormalSampler {
	mu, sigma := l.params()
	return LognormalSampler{mu: mu, sigma: sigma}
}

// Sample draws one variate: the value Lognormal.Sample draws, from the same
// RNG call.
func (s LognormalSampler) Sample(r *RNG) float64 {
	return math.Exp(s.mu + s.sigma*r.NormFloat64())
}

// Quantile returns the p-quantile (0 < p < 1) of the distribution, computed
// from the inverse error function.
func (l Lognormal) Quantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: quantile probability %v out of (0,1)", p))
	}
	mu, sigma := l.params()
	return math.Exp(mu + sigma*math.Sqrt2*erfinv(2*p-1))
}

// erfinv approximates the inverse error function (Giles, 2010 single
// precision refinement extended with one Newton step for float64 accuracy).
func erfinv(x float64) float64 {
	if x <= -1 || x >= 1 {
		panic("stats: erfinv argument out of (-1,1)")
	}
	w := -math.Log((1 - x) * (1 + x))
	var p float64
	if w < 5 {
		w -= 2.5
		p = 2.81022636e-08
		p = 3.43273939e-07 + p*w
		p = -3.5233877e-06 + p*w
		p = -4.39150654e-06 + p*w
		p = 0.00021858087 + p*w
		p = -0.00125372503 + p*w
		p = -0.00417768164 + p*w
		p = 0.246640727 + p*w
		p = 1.50140941 + p*w
	} else {
		w = math.Sqrt(w) - 3
		p = -0.000200214257
		p = 0.000100950558 + p*w
		p = 0.00134934322 + p*w
		p = -0.00367342844 + p*w
		p = 0.00573950773 + p*w
		p = -0.0076224613 + p*w
		p = 0.00943887047 + p*w
		p = 1.00167406 + p*w
		p = 2.83297682 + p*w
	}
	y := p * x
	// One Newton refinement: f(y) = erf(y) - x.
	y -= (math.Erf(y) - x) / (2 / math.SqrtPi * math.Exp(-y*y))
	return y
}

// Uniform is a uniform distribution over [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

// Sample draws one variate.
func (u Uniform) Sample(r *RNG) float64 {
	return u.Lo + (u.Hi-u.Lo)*r.Float64()
}
