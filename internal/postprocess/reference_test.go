package postprocess

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"testing"

	"wpinq/internal/laplace"
)

// The implementations GridPath, isGraphicalDesc and RoundToGraphical
// replaced, kept as oracles: the seed graph of every fixed-seed fit is
// pinned to what these produce.

// gridPathDijkstra is the former GridPath: Dijkstra over the lattice with
// strict-improvement relaxation, so among equal-cost ways into a point the
// predecessor popped first (the one with the smaller dist) is kept.
func gridPathDijkstra(v, h []float64, width, height int) []int {
	vAt := func(x int) float64 {
		if x < len(v) {
			return v[x]
		}
		return 0
	}
	hAt := func(y int) float64 {
		if y < len(h) {
			return h[y]
		}
		return 0
	}
	type point struct{ x, y int }
	dist := make(map[point]float64, 4*(width+height))
	prev := make(map[point]point, 4*(width+height))
	start := point{0, height}
	goal := point{width, 0}
	pq := &pointQueue{}
	heap.Init(pq)
	heap.Push(pq, pqItem{start, 0})
	dist[start] = 0
	for pq.Len() > 0 {
		it := heap.Pop(pq).(pqItem)
		p := it.p
		if it.d > dist[p]+1e-15 {
			continue
		}
		if p == goal {
			break
		}
		if p.x < width {
			q := point{p.x + 1, p.y}
			nd := it.d + math.Abs(vAt(p.x)-float64(p.y))
			if old, ok := dist[q]; !ok || nd < old {
				dist[q] = nd
				prev[q] = p
				heap.Push(pq, pqItem{q, nd})
			}
		}
		if p.y > 0 {
			q := point{p.x, p.y - 1}
			nd := it.d + math.Abs(hAt(p.y-1)-float64(p.x))
			if old, ok := dist[q]; !ok || nd < old {
				dist[q] = nd
				prev[q] = p
				heap.Push(pq, pqItem{q, nd})
			}
		}
	}
	fitted := make([]int, width)
	p := goal
	for p != start {
		q := prev[p]
		if q.x == p.x-1 {
			fitted[q.x] = q.y
		}
		p = q
	}
	return fitted
}

type pqItem struct {
	p struct{ x, y int }
	d float64
}

type pointQueue []pqItem

func (q pointQueue) Len() int            { return len(q) }
func (q pointQueue) Less(i, j int) bool  { return q[i].d < q[j].d }
func (q pointQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pointQueue) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pointQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// pathCost evaluates eq. 2 on the staircase fitted: the path crosses
// column x at level fitted[x] and drops between columns (from height
// before column 0, to 0 after the last), summed in path order.
func pathCost(v, h []float64, fitted []int, height int) float64 {
	at := func(s []float64, i int) float64 {
		if i < len(s) {
			return s[i]
		}
		return 0
	}
	var cost float64
	y := height
	for x, level := range fitted {
		for ; y > level; y-- {
			cost += math.Abs(at(h, y-1) - float64(x))
		}
		cost += math.Abs(at(v, x) - float64(level))
	}
	for ; y > 0; y-- {
		cost += math.Abs(at(h, y-1) - float64(len(fitted)))
	}
	return cost
}

// checkStaircase fails unless fitted is a non-increasing sequence of the
// requested width within [0, height].
func checkStaircase(t *testing.T, fitted []int, width, height int) {
	t.Helper()
	if len(fitted) != width {
		t.Fatalf("len = %d, want %d", len(fitted), width)
	}
	for i, y := range fitted {
		if y < 0 || y > height {
			t.Fatalf("fitted[%d] = %d outside [0, %d]", i, y, height)
		}
		if i > 0 && y > fitted[i-1] {
			t.Fatalf("not non-increasing at %d: %v", i, fitted)
		}
	}
}

// powerLawSeq is a non-increasing degree sequence with a few hubs and a
// long tail of small degrees.
func powerLawSeq(n, maxDeg int, rng *rand.Rand) []int {
	seq := make([]int, n)
	for i := range seq {
		seq[i] = 1 + int(float64(maxDeg)*math.Pow(rng.Float64(), 4))
	}
	slices.SortFunc(seq, func(a, b int) int { return b - a })
	return seq
}

// ccdf returns the exact degree CCDF of seq: h[y] = #degrees > y.
func ccdf(seq []int, n int) []float64 {
	h := make([]float64, n)
	for _, d := range seq {
		for y := 0; y < d && y < n; y++ {
			h[y]++
		}
	}
	return h
}

// TestGridPathMatchesReference: on Laplace-noised staircases (no exact
// double ties) the dynamic programme returns the reference Dijkstra's
// staircase element for element; on integer measurements, where both
// candidates and both predecessors tie and the reference's choice is an
// accident of heap layout, it returns a staircase of the same cost.
func TestGridPathMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	t.Run("noisy", func(t *testing.T) {
		for i, tc := range []struct {
			n, maxDeg, width, height int
			eps                      float64
		}{
			{30, 8, 30, 12, 1},
			{30, 8, 40, 40, 0.1},
			{200, 40, 200, 60, 0.5},
			{200, 40, 220, 30, 0.1}, // height clips the hubs
			{500, 25, 480, 45, 0.2}, // width clips the tail
			{1000, 120, 1000, 190, 0.1},
			{1000, 60, 1010, 98, 1},
			{3000, 150, 3020, 230, 0.1},
		} {
			seq := powerLawSeq(tc.n, tc.maxDeg, rng)
			noise := laplace.New(1 / tc.eps)
			v := make([]float64, tc.width)
			for x := range v {
				if x < len(seq) {
					v[x] = float64(seq[x])
				}
				v[x] += noise.Sample(rng)
			}
			h := ccdf(seq, tc.height)
			for y := range h {
				h[y] += noise.Sample(rng)
			}
			// Measurements shorter and longer than the grid are both legal.
			if i%3 == 1 {
				v, h = v[:len(v)/2], h[:len(h)-1]
			}
			got, err := GridPath(v, h, tc.width, tc.height)
			if err != nil {
				t.Fatal(err)
			}
			checkStaircase(t, got, tc.width, tc.height)
			want := gridPathDijkstra(v, h, tc.width, tc.height)
			if !slices.Equal(got, want) {
				t.Errorf("case %d (%dx%d): fitted differs from the reference\n got %v\nwant %v", i, tc.width, tc.height, got, want)
			}
		}
	})
	t.Run("ties", func(t *testing.T) {
		for i := 0; i < 200; i++ {
			width, height := 1+rng.Intn(40), 1+rng.Intn(40)
			v := make([]float64, rng.Intn(width+5))
			for x := range v {
				v[x] = float64(rng.Intn(height+3) - 1)
			}
			h := make([]float64, rng.Intn(height+5))
			for y := range h {
				h[y] = float64(rng.Intn(width+3) - 1)
			}
			if i%4 == 0 { // a clean staircase: the zero-cost path is unique up to ties
				seq := powerLawSeq(width, height, rng)
				v, h = v[:0], ccdf(seq, height)
				for _, d := range seq {
					v = append(v, float64(d))
				}
			}
			got, err := GridPath(v, h, width, height)
			if err != nil {
				t.Fatal(err)
			}
			checkStaircase(t, got, width, height)
			want := gridPathDijkstra(v, h, width, height)
			if g, w := pathCost(v, h, got, height), pathCost(v, h, want, height); g != w {
				t.Errorf("case %d (%dx%d): path cost %v, reference %v\n v %v\n h %v", i, width, height, g, w, v, h)
			}
		}
	})
}

// isGraphicalQuadratic is the former isGraphicalDesc: the Erdos-Gallai
// sum recomputed from scratch for every k.
func isGraphicalQuadratic(d []int) bool {
	n := len(d)
	var sum int
	for _, x := range d {
		sum += x
	}
	if sum%2 != 0 {
		return false
	}
	lhs := 0
	for k := 1; k <= n; k++ {
		lhs += d[k-1]
		rhs := k * (k - 1)
		for i := k; i < n; i++ {
			rhs += min(d[i], k)
		}
		if lhs > rhs {
			return false
		}
	}
	return true
}

// roundToGraphicalQuadratic is the former RoundToGraphical: a full
// Erdos-Gallai check and a full insertion sort per unit removed.
func roundToGraphicalQuadratic(seq []float64) []int {
	n := len(seq)
	out := make([]int, n)
	for i, v := range seq {
		out[i] = min(max(int(math.Round(v)), 0), n-1)
	}
	insertionSortDesc(out)
	for !isGraphicalQuadratic(out) {
		for i := 0; i < n; i++ {
			if out[i] > 0 {
				out[i]--
				break
			}
		}
		insertionSortDesc(out)
	}
	return out
}

// TestGraphicalMatchesReference compares the linear Erdos-Gallai check
// and the incremental repair with the quadratic versions on graphical
// sequences (degrees of a random graph), hub-heavy non-graphical ones and
// odd-sum ones.
func TestGraphicalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for i := 0; i < 600; i++ {
		n := 1 + rng.Intn(60)
		seq := make([]int, n)
		switch i % 3 {
		case 0: // graphical: realised by G(n, p)
			p := rng.Float64()
			for a := 0; a < n; a++ {
				for b := a + 1; b < n; b++ {
					if rng.Float64() < p {
						seq[a]++
						seq[b]++
					}
				}
			}
		case 1: // a few hubs over a sparse tail: usually violates Erdos-Gallai
			for j := range seq {
				if j < 1+n/8 {
					seq[j] = n - 1 - rng.Intn(3)
				} else {
					seq[j] = rng.Intn(3)
				}
			}
		case 2: // arbitrary, forced odd
			sum := 0
			for j := range seq {
				seq[j] = rng.Intn(n)
				sum += seq[j]
			}
			if sum%2 == 0 {
				seq[0] ^= 1
			}
		}
		for j := range seq {
			seq[j] = min(max(seq[j], 0), n-1)
		}
		asFloat := make([]float64, n)
		for j, d := range seq {
			asFloat[j] = float64(d) + 0.8*(rng.Float64()-0.5)
		}
		slices.SortFunc(seq, func(a, b int) int { return b - a })
		if got, want := isGraphicalDesc(seq), isGraphicalQuadratic(seq); got != want {
			t.Fatalf("isGraphicalDesc(%v) = %v, quadratic check says %v", seq, got, want)
		}
		got, want := RoundToGraphical(asFloat), roundToGraphicalQuadratic(asFloat)
		if !slices.Equal(got, want) {
			t.Fatalf("RoundToGraphical(%v)\n got %v\nwant %v", asFloat, got, want)
		}
	}
}
