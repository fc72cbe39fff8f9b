package queries

import (
	"errors"
	"math"
	"testing"

	"wpinq/internal/graph"
)

// TestPackedEdgeRoundTrip pins the identity encoding: in-range node ids
// pack as themselves and the key accessors recover both endpoints
// without decoding.
func TestPackedEdgeRoundTrip(t *testing.T) {
	cases := []graph.Edge{
		{Src: 0, Dst: 0},
		{Src: 1, Dst: 2},
		{Src: nodeMask, Dst: 7}, // the last 21-bit code
		{Src: 300, Dst: 2031615},
	}
	for _, e := range cases {
		p := packEdge(e)
		if got := graph.Node(p.srcKey()); got != e.Src {
			t.Errorf("packEdge(%v).srcKey() = %d, want %d", e, got, e.Src)
		}
		if got := graph.Node(p.dstKey()); got != e.Dst {
			t.Errorf("packEdge(%v).dstKey() = %d, want %d", e, got, e.Dst)
		}
	}
}

// TestPackedPathRoundTripAndRotate pins PPath against the decoded Path
// operations it replaces: pack/unpack is the identity and rotate
// matches Path.Rotate.
func TestPackedPathRoundTripAndRotate(t *testing.T) {
	cases := []Path{
		{A: 0, B: 1, C: 2},
		{A: 5, B: 5, C: 5},
		{A: 2031615, B: 0, C: 1048576},
	}
	for _, want := range cases {
		p := packedPath(packNode(want.A), packNode(want.B), packNode(want.C))
		if got := p.unpack(); got != want {
			t.Errorf("packed %v unpacks to %v", want, got)
		}
		wantRot := Path{A: want.B, B: want.C, C: want.A}
		if got := p.rotate().unpack(); got != wantRot {
			t.Errorf("packed %v rotates to %v, want %v", want, got, wantRot)
		}
	}
}

// TestPackedDegAndEdgeDeg pins the degree-carrying encodings, including
// reverseKey, which the JDD self-join matches against edgeKey.
func TestPackedDegAndEdgeDeg(t *testing.T) {
	d := packedDeg(42, 7)
	if d.nodeKey() != 42 || d.deg() != 7 {
		t.Errorf("packedDeg(42, 7) = (%d, %d)", d.nodeKey(), d.deg())
	}

	e := packEdge(graph.Edge{Src: 3, Dst: 9})
	ed := packedEdgeDeg(e, 5)
	if ed.edgeKey() != uint64(e) {
		t.Errorf("edgeKey = %d, want %d", ed.edgeKey(), uint64(e))
	}
	if ed.deg() != 5 {
		t.Errorf("deg = %d, want 5", ed.deg())
	}
	rev := packEdge(graph.Edge{Src: 9, Dst: 3})
	if ed.reverseKey() != uint64(rev) {
		t.Errorf("reverseKey = %d, want %d", ed.reverseKey(), uint64(rev))
	}
}

// TestPackDegPanicsOutOfRange documents the hard cap: degrees must fit
// the 21-bit field.
func TestPackDegPanicsOutOfRange(t *testing.T) {
	for _, d := range []int{-1, nodeMask + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("packDeg(%d) did not panic", d)
				}
			}()
			packDeg(d)
		}()
	}
}

// TestPackNodeRange pins the backstop behind CheckNodeRange: ids in
// [0, 2^21) pack as themselves and unpack back, and any other id — one
// a measurement failed to rank — panics instead of aliasing another.
func TestPackNodeRange(t *testing.T) {
	for _, n := range []graph.Node{0, 1, 2031616, nodeMask} {
		if c := packNode(n); c != uint64(n) || unpackNode(c) != n {
			t.Errorf("packNode(%d) = %d, unpacks to %d", n, c, unpackNode(c))
		}
	}
	for _, n := range []graph.Node{-1, nodeMask + 1, math.MinInt32, math.MaxInt32} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("packNode(%d) did not panic", n)
				}
			}()
			packNode(n)
		}()
	}
}

// TestCheckNodeRange pins the pre-flight check in front of packNode's
// panic: a graph ranked onto [0, n) packs when n <= 2^21, and a larger
// one is ErrNodeRange.
func TestCheckNodeRange(t *testing.T) {
	for _, n := range []int{0, 1, 1 << nodeBits} {
		if err := CheckNodeRange(n); err != nil {
			t.Errorf("CheckNodeRange(%d) = %v, want nil", n, err)
		}
	}
	if err := CheckNodeRange(1<<nodeBits + 1); !errors.Is(err, ErrNodeRange) {
		t.Errorf("CheckNodeRange(2^21+1) = %v, want ErrNodeRange", err)
	}
}
