package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"wpinq/internal/laplace"
)

// TestOpenUnitIsOpen pins the map from a record's hash to the uniform its
// noise is the Laplace quantile of: both extreme hashes land strictly
// inside (0,1), where Quantile is defined, and a hash below the top cell
// keeps the cell midpoint's bits.
func TestOpenUnitIsOpen(t *testing.T) {
	for _, u := range []uint64{0, math.MaxUint64} {
		p := openUnit(u)
		if !(p > 0 && p < 1) {
			t.Fatalf("openUnit(%#x) = %v, want strictly inside (0,1)", u, p)
		}
		if q := laplace.New(1).Quantile(p); math.IsInf(q, 0) || math.IsNaN(q) {
			t.Errorf("Quantile(openUnit(%#x)) = %v, want finite", u, q)
		}
	}
	if got, want := openUnit(math.MaxUint64), math.Nextafter(1, 0); got != want {
		t.Errorf("openUnit(max) = %v, want %v", got, want)
	}
	for _, u := range []uint64{0, 1 << 11, 0x9e3779b97f4a7c15, math.MaxUint64 - 1<<11} {
		if got, want := openUnit(u), (float64(u>>11)+0.5)/(1<<53); got != want {
			t.Errorf("openUnit(%#x) = %v, want the cell midpoint %v", u, got, want)
		}
	}
}

// TestUnreleasedNoiseIsLaplace checks the distribution of the noise a
// Histogram derives for records it never released: at a fixed salt the
// draws over n distinct records pass a Kolmogorov–Smirnov test against
// Laplace(1/ε), and the draws of two salts over the same records are
// uncorrelated.
func TestUnreleasedNoiseIsLaplace(t *testing.T) {
	const (
		n   = 4000
		eps = 0.5
	)
	// ksBound is the KS critical value at significance 0.001; corrBound
	// is four standard errors of a null Pearson r.
	ksBound, corrBound := 1.95/math.Sqrt(n), 4/math.Sqrt(n)
	dist, err := laplace.FromEpsilon(eps)
	if err != nil {
		t.Fatal(err)
	}
	draws := func(seed int64) []float64 {
		h, err := HistogramFromMaterialized(map[int]float64{-1: 3}, eps, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, n)
		for x := range out {
			out[x] = h.Get(x)
		}
		return out
	}
	a, b := draws(11), draws(12)

	sorted := slices.Clone(a)
	slices.Sort(sorted)
	var d float64
	for i, x := range sorted {
		f := dist.CDF(x)
		d = max(d, math.Abs(float64(i+1)/n-f), math.Abs(f-float64(i)/n))
	}
	r := pearson(a, b)
	t.Logf("KS %.4f (bound %.4f), r %.4f (bound %.4f)", d, ksBound, r, corrBound)
	if d > ksBound {
		t.Errorf("KS statistic %.4f against Laplace(1/%v) exceeds %.4f", d, eps, ksBound)
	}

	if math.Abs(r) > corrBound {
		t.Errorf("two salts' draws correlate: r = %.4f, want |r| < %.4f", r, corrBound)
	}
}

// pearson returns the sample correlation of x and y.
func pearson(x, y []float64) float64 {
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= float64(len(x))
	my /= float64(len(y))
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	return sxy / math.Sqrt(sxx*syy)
}
