// Package laplace implements the Laplace distribution used by wPINQ's
// NoisyCount aggregation (paper Section 2.2). Sampling uses inverse-CDF
// transform over an injected random source so that experiments are
// reproducible.
package laplace

import (
	"errors"
	"math"
	"math/rand"
)

// Dist is a zero-mean Laplace distribution with scale b (variance 2b^2).
// NoisyCount with privacy parameter eps uses scale b = 1/eps.
type Dist struct {
	b float64
}

// New returns a Laplace distribution with the given scale. It panics if
// scale is not positive, since a non-positive scale indicates a privacy
// accounting bug at the call site.
func New(scale float64) Dist {
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		panic("laplace: scale must be positive and finite")
	}
	return Dist{b: scale}
}

// FromEpsilon returns the Laplace(1/eps) distribution used to release a
// weighted count with eps-differential privacy.
func FromEpsilon(eps float64) (Dist, error) {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return Dist{}, errors.New("laplace: epsilon must be positive and finite")
	}
	return Dist{b: 1 / eps}, nil
}

// Scale returns the scale parameter b.
func (d Dist) Scale() float64 { return d.b }

// Sample draws one value using the inverse CDF method:
// for u uniform in (-1/2, 1/2), x = -b * sign(u) * ln(1 - 2|u|).
func (d Dist) Sample(rng *rand.Rand) float64 {
	u := rng.Float64() - 0.5
	// Guard the measure-zero endpoint u = -0.5 (Float64 returns [0,1)).
	for u == -0.5 {
		u = rng.Float64() - 0.5
	}
	if u < 0 {
		return d.b * math.Log(1+2*u)
	}
	return -d.b * math.Log(1-2*u)
}

// Density returns the probability density at x:
// f(x) = exp(-|x|/b) / (2b).
func (d Dist) Density(x float64) float64 {
	return math.Exp(-math.Abs(x)/d.b) / (2 * d.b)
}

// LogDensity returns ln f(x) = -|x|/b - ln(2b), numerically stable for
// large |x| where Density underflows.
func (d Dist) LogDensity(x float64) float64 {
	return -math.Abs(x)/d.b - math.Log(2*d.b)
}

// CDF returns P(X <= x).
func (d Dist) CDF(x float64) float64 {
	if x < 0 {
		return 0.5 * math.Exp(x/d.b)
	}
	return 1 - 0.5*math.Exp(-x/d.b)
}

// Quantile returns the x with CDF(x) = p, for p in (0, 1).
func (d Dist) Quantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("laplace: quantile requires p in (0,1)")
	}
	if p < 0.5 {
		return d.b * math.Log(2*p)
	}
	return -d.b * math.Log(2*(1-p))
}

// Variance returns 2b^2.
func (d Dist) Variance() float64 { return 2 * d.b * d.b }
