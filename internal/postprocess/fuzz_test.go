package postprocess

import (
	"math"
	"testing"
)

// FuzzGridPath ensures the regression never panics, always returns a
// non-increasing integer sequence of the requested width, stays within
// the grid's height bound and costs what the reference Dijkstra's path
// costs — whatever the noisy measurements look like.
func FuzzGridPath(f *testing.F) {
	f.Add([]byte{10, 8, 3, 1}, []byte{4, 3, 1}, 6, 12)
	f.Add([]byte{}, []byte{}, 1, 1)
	f.Add([]byte{255, 0, 255}, []byte{0, 255}, 4, 4)
	f.Fuzz(func(t *testing.T, vb, hb []byte, width, height int) {
		if width < 0 {
			width = -width
		}
		if height < 0 {
			height = -height
		}
		width = width%48 + 1
		height = height%48 + 1
		v := make([]float64, len(vb))
		for i, b := range vb {
			v[i] = float64(b) - 32 // include negative measurements
		}
		h := make([]float64, len(hb))
		for i, b := range hb {
			h[i] = float64(b) - 32
		}
		fitted, err := GridPath(v, h, width, height)
		if err != nil {
			t.Fatalf("GridPath(%v, %v, %d, %d): %v", v, h, width, height, err)
		}
		checkStaircase(t, fitted, width, height)
		// The measurements are integers, so every path cost is exact and
		// the optimum ties widely: the reference may take another path,
		// never a cheaper one.
		ref := gridPathDijkstra(v, h, width, height)
		if got, want := pathCost(v, h, fitted, height), pathCost(v, h, ref, height); got != want {
			t.Fatalf("GridPath(%v, %v, %d, %d): path cost %v, reference %v", v, h, width, height, got, want)
		}
	})
}

// FuzzIsotonicDecreasing ensures PAVA output is monotone and mass
// preserving for arbitrary finite inputs.
func FuzzIsotonicDecreasing(f *testing.F) {
	f.Add([]byte{1, 5, 3, 3, 9})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		xs := make([]float64, len(raw))
		var sum float64
		for i, b := range raw {
			xs[i] = float64(b) - 100
			sum += xs[i]
		}
		out := IsotonicDecreasing(xs)
		if len(out) != len(xs) {
			t.Fatalf("length changed: %d -> %d", len(xs), len(out))
		}
		var outSum float64
		for i, y := range out {
			outSum += y
			if i > 0 && y > out[i-1]+1e-9 {
				t.Fatalf("not monotone at %d: %v", i, out)
			}
		}
		if len(xs) > 0 && math.Abs(outSum-sum) > 1e-6*(1+math.Abs(sum)) {
			t.Fatalf("mass changed: %v -> %v", sum, outSum)
		}
	})
}
