package queries

import (
	"errors"
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
		{Src: 2031615, Dst: 7}, // internBase-1: last identity-encoded id
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

// TestPackNodeInterning covers the escape hatch for ids outside the
// identity range: negative and >= internBase ids round-trip through the
// interning table, repeated packs reuse the same code, and distinct ids
// get distinct codes.
func TestPackNodeInterning(t *testing.T) {
	ids := []graph.Node{-1, -12345, internBase, internBase + 99}
	codes := make(map[uint64]graph.Node)
	for _, n := range ids {
		c := packNode(n)
		if c < internBase {
			t.Errorf("packNode(%d) = %d: out-of-range id encoded in identity space", n, c)
		}
		if prev, dup := codes[c]; dup {
			t.Errorf("packNode(%d) and packNode(%d) share code %d", prev, n, c)
		}
		codes[c] = n
		if c2 := packNode(n); c2 != c {
			t.Errorf("packNode(%d) unstable: %d then %d", n, c, c2)
		}
		if back := unpackNode(c); back != n {
			t.Errorf("unpackNode(packNode(%d)) = %d", n, back)
		}
	}
}

// TestCheckNodeRange pins the pre-flight check in front of packNode's
// panic: in-range ids and a few out-of-range ones pass, more new
// out-of-range ids than the interning table has free codes are
// ErrNodeRange, and checking interns nothing.
func TestCheckNodeRange(t *testing.T) {
	few := graph.New()
	few.AddEdge(-7, 5)
	few.AddEdge(internBase+3, 2031615)
	if err := CheckNodeRange(few); err != nil {
		t.Errorf("graph with two out-of-range ids refused: %v", err)
	}
	many := graph.New()
	for i := graph.Node(1); i <= internCap; i++ {
		many.AddEdge(-i, -i-1) // internCap+1 negative ids
	}
	size := len(interner.rev)
	if err := CheckNodeRange(many); !errors.Is(err, ErrNodeRange) {
		t.Errorf("graph with %d negative ids: %v, want ErrNodeRange", many.NumNodes(), err)
	}
	if len(interner.rev) != size {
		t.Errorf("CheckNodeRange interned %d ids", len(interner.rev)-size)
	}
}
