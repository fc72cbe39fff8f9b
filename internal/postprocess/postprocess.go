// Package postprocess implements the regression techniques of paper
// Section 3.1 for cleaning noisy degree measurements:
//
//   - PAVA: isotonic regression onto non-increasing sequences (the
//     post-processing of Hay et al. adapted to wPINQ's descending degree
//     sequences), and
//   - GridPath: the paper's lowest-cost monotone lattice path, which fuses
//     a noisy degree sequence ("vertical" measurements v) with a noisy
//     degree CCDF ("horizontal" measurements h) by minimizing eq. 2:
//     sum over path points (x, y) of |v[x]-y| + |h[y]-x|.
//
// Post-processing is free under differential privacy: it touches only
// released measurements.
package postprocess

import (
	"errors"
	"math"
)

// IsotonicDecreasing returns the least-squares projection of xs onto
// non-increasing sequences, via the pool-adjacent-violators algorithm.
func IsotonicDecreasing(xs []float64) []float64 {
	n := len(xs)
	if n == 0 {
		return nil
	}
	// Pools of (mean value, count), merged while adjacent means violate
	// the non-increasing constraint.
	vals := make([]float64, 0, n)
	counts := make([]int, 0, n)
	for _, x := range xs {
		vals = append(vals, x)
		counts = append(counts, 1)
		for len(vals) > 1 && vals[len(vals)-2] < vals[len(vals)-1] {
			v2, c2 := vals[len(vals)-1], counts[len(counts)-1]
			v1, c1 := vals[len(vals)-2], counts[len(counts)-2]
			vals = vals[:len(vals)-1]
			counts = counts[:len(counts)-1]
			vals[len(vals)-1] = (v1*float64(c1) + v2*float64(c2)) / float64(c1+c2)
			counts[len(counts)-1] = c1 + c2
		}
	}
	out := make([]float64, 0, n)
	for i, v := range vals {
		for j := 0; j < counts[i]; j++ {
			out = append(out, v)
		}
	}
	return out
}

// IsotonicIncreasing is the ascending counterpart of IsotonicDecreasing.
func IsotonicIncreasing(xs []float64) []float64 {
	n := len(xs)
	rev := make([]float64, n)
	for i, x := range xs {
		rev[n-1-i] = x
	}
	dec := IsotonicDecreasing(rev)
	out := make([]float64, n)
	for i, x := range dec {
		out[n-1-i] = x
	}
	return out
}

// GridPath fits a non-increasing staircase to the noisy degree sequence v
// and noisy CCDF h, by computing the lowest-cost monotone path from
// (0, height) to (width, 0) on the integer lattice, where
//
//	cost((x,y) -> (x+1,y)) = |v[x] - y|   (horizontal step commits to y)
//	cost((x,y+1) -> (x,y)) = |h[y] - x|   (vertical step commits to x)
//
// (paper Section 3.1, eq. 2). width bounds the number of vertices
// considered and height the maximum degree; measurements past the end of v
// or h are treated as 0 (pure noise was measured there). The returned
// sequence fitted[x] is the y-level of the path over column x, a
// non-increasing integer degree sequence of length width.
//
// The lattice is a DAG, so the shortest path is a dynamic programme,
//
//	dist(x,y) = min(dist(x-1,y) + |v[x-1]-y|, dist(x,y+1) + |h[y]-x|),
//
// filled column by column with one rolling column of distances and one
// back-pointer bit per lattice point: O(width*height) time and
// width*height bits of memory. The L1 cost ties structurally (right-then-
// down and down-then-right around a cell often cost the same), so the tie
// rule decides the fit: on equal candidates the predecessor with the
// smaller dist wins, and the left one when those tie too.
func GridPath(v, h []float64, width, height int) ([]int, error) {
	if width <= 0 || height <= 0 {
		return nil, errors.New("postprocess: grid dimensions must be positive")
	}
	// hs[y] is the measurement a down step into row y commits against.
	hs := make([]float64, height)
	copy(hs, h)
	// fromLeft holds one bit per lattice point (x, y), column-major: set
	// when the cheapest way into the point is the horizontal step.
	words := (height + 1 + 63) / 64
	fromLeft := make([]uint64, (width+1)*words)
	// Column 0 is reachable only by down steps from the start (0, height).
	col := make([]float64, height+1)
	for y := height - 1; y >= 0; y-- {
		col[y] = col[y+1] + math.Abs(hs[y])
	}
	for x := 1; x <= width; x++ {
		var vx float64
		if x-1 < len(v) {
			vx = v[x-1]
		}
		fx := float64(x)
		bits := fromLeft[x*words : (x+1)*words]
		// Row height is reachable only by right steps.
		col[height] += math.Abs(vx - float64(height))
		bits[height>>6] |= 1 << (height & 63)
		for y := height - 1; y >= 0; y-- {
			// col[y] still holds dist(x-1, y); col[y+1] is dist(x, y+1).
			left := col[y] + math.Abs(vx-float64(y))
			down := col[y+1] + math.Abs(hs[y]-fx)
			if left < down || (left == down && col[y] <= col[y+1]) {
				col[y] = left
				bits[y>>6] |= 1 << (y & 63)
			} else {
				col[y] = down
			}
		}
	}
	// Walk back from the goal, recording the y-level at which each column
	// x was crossed (the y when stepping x -> x+1).
	fitted := make([]int, width)
	for x, y := width, 0; x > 0; {
		if fromLeft[x*words+(y>>6)]&(1<<(y&63)) != 0 {
			x--
			fitted[x] = y
		} else {
			y++
		}
	}
	return fitted, nil
}

// RoundToGraphical converts a fitted real-valued degree sequence into a
// non-increasing, even-sum, graphical integer sequence suitable for seed
// graph construction: values are rounded and clamped to [0, n-1], sorted
// non-increasing, and one unit at a time is shaved off the largest degree
// until the sum is even and the Erdos-Gallai condition holds.
func RoundToGraphical(seq []float64) []int {
	n := len(seq)
	out := make([]int, n)
	for i, v := range seq {
		d := int(math.Round(v))
		if d < 0 {
			d = 0
		}
		if d > n-1 {
			d = n - 1
		}
		out[i] = d
	}
	// Non-increasing (input should nearly be; enforce exactly).
	insertionSortDesc(out)
	for !isGraphicalDesc(out) {
		// Lower the head. Taking the unit from the last of the values
		// equal to it keeps the sequence sorted.
		j := 0
		for j+1 < n && out[j+1] == out[0] {
			j++
		}
		out[j]--
	}
	return out
}

// isGraphicalDesc checks the Erdos-Gallai condition on a non-increasing
// sequence, including the even-sum requirement: for each k the first k
// degrees sum to at most k(k-1) + sum_{i>k} min(d_i, k). One pass: the
// degrees past the first k split into those >= k, which contribute k each,
// and a tail that contributes its own sum, and the split point only moves
// down while it is above k and then rides on k.
func isGraphicalDesc(d []int) bool {
	n := len(d)
	var sum int
	for _, x := range d {
		sum += x
	}
	if sum%2 != 0 {
		return false
	}
	lhs := 0
	split, tail := n, 0 // tail = sum of d[split:]
	for k := 1; k <= n; k++ {
		lhs += d[k-1]
		if split < k {
			tail -= d[split]
			split++
		}
		for split > k && d[split-1] < k {
			split--
			tail += d[split]
		}
		if lhs > k*(k-1)+k*(split-k)+tail {
			return false
		}
	}
	return true
}

func insertionSortDesc(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] < v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
