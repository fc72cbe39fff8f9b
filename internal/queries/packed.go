package queries

import (
	"errors"
	"fmt"

	"wpinq/internal/graph"
)

// Packed record encodings for the hot pipeline interiors. The dataflow
// operators key their state maps and hash exchanges on the record types
// flowing through them; packing the graph-shaped intermediates (edges,
// length-two paths, degree pairs) into single uint64 words shrinks that
// state and hits the runtime's fast fixed-size map variants. Packing is
// confined to tree interiors: every tree reads graph.Edge records and
// every exported analysis emits a decoded record type. Fragments hand
// each other packed words, so a record is packed once, where the edge
// dataset enters a fragment, and decoded only where a decoded record is
// the output.
//
// Packing cannot perturb results or trace determinism: it is an
// injective re-encoding applied to records only — weights never pass
// through it, grouping classes are preserved (equal records stay equal,
// distinct stay distinct), and every ordering the operators rely on is
// positional (insertion order), never an order over record values.
//
// Node ids occupy 21 bits, so a length-two path packs into 63, and a
// node id packs as itself. Every graph the generators produce has ids
// 0, …, n−1; a measurement of a caller's graph ranks its ids onto
// [0, n) first (graph.Ranked), which no released record can tell apart,
// since released records carry degrees, never ids.

const (
	nodeBits = 21
	nodeMask = 1<<nodeBits - 1
)

// packNode encodes a node id into 21 bits.
func packNode(n graph.Node) uint64 {
	if n < 0 || n > nodeMask {
		panic(fmt.Sprintf("queries: node id %d out of packed range [0, %d)", n, 1<<nodeBits))
	}
	return uint64(n)
}

// unpackNode is packNode's inverse.
func unpackNode(c uint64) graph.Node { return graph.Node(c) }

// ErrNodeRange reports a graph with more vertices than 21-bit node codes
// can number.
var ErrNodeRange = errors.New("queries: node ids out of packed range")

// CheckNodeRange returns ErrNodeRange if a graph of n vertices, ranked
// onto [0, n), would not fit the 21-bit node codes. A measurement calls
// it before charging anything; packNode's panic stays behind it as the
// backstop. (Degrees need no check: they are below the vertex count.)
func CheckNodeRange(n int) error {
	if n > 1<<nodeBits {
		return fmt.Errorf("%w: %d vertices, at most %d", ErrNodeRange, n, 1<<nodeBits)
	}
	return nil
}

// packDeg encodes a (possibly bucketed) degree into 21 bits. Degrees are
// bounded by the vertex count, which the node encoding already caps.
func packDeg(d int) uint64 {
	if d < 0 || d > nodeMask {
		panic(fmt.Sprintf("queries: degree %d out of packed range", d))
	}
	return uint64(d)
}

// PEdge is a directed edge packed as src<<21 | dst.
type PEdge uint64

func packEdge(e graph.Edge) PEdge {
	return PEdge(packNode(e.Src)<<nodeBits | packNode(e.Dst))
}

// srcKey and dstKey return the packed endpoints, used as join and group
// keys without decoding.
func (e PEdge) srcKey() uint64 { return uint64(e) >> nodeBits }
func (e PEdge) dstKey() uint64 { return uint64(e) & nodeMask }

// PPath is a length-two path packed as a<<42 | b<<21 | c.
type PPath uint64

// packedPath assembles a path word from three already-packed node
// codes.
//
//wpinq:packed-kernel assembles raw 21-bit codes; every call site passes packNode results or packed accessors, which the analyzer verifies
func packedPath(a, b, c uint64) PPath {
	return PPath(a<<(2*nodeBits) | b<<nodeBits | c)
}

func (p PPath) aKey() uint64 { return uint64(p) >> (2 * nodeBits) }
func (p PPath) bKey() uint64 { return uint64(p) >> nodeBits & nodeMask }
func (p PPath) cKey() uint64 { return uint64(p) & nodeMask }

// rotate returns (b, c, a), mirroring Path.Rotate on the packed form.
func (p PPath) rotate() PPath {
	const lowTwo = 1<<(2*nodeBits) - 1
	return PPath(((uint64(p) & lowTwo) << nodeBits) | (uint64(p) >> (2 * nodeBits)))
}

func (p PPath) unpack() Path {
	return Path{unpackNode(p.aKey()), unpackNode(p.bKey()), unpackNode(p.cKey())}
}

// PDeg is a (vertex, degree) pair packed as node<<21 | deg: the packed
// form of the degrees fragment's Grouped[graph.Node, int] output.
type PDeg uint64

// packedDeg assembles a (node, degree) word from an already-packed node
// code; the degree is ranged-checked here via packDeg.
//
//wpinq:packed-kernel assembles a raw 21-bit node code; every call site passes packNode results or packed accessors, which the analyzer verifies
func packedDeg(node uint64, deg int) PDeg {
	return PDeg(node<<nodeBits | packDeg(deg))
}

func (d PDeg) nodeKey() uint64 { return uint64(d) >> nodeBits }
func (d PDeg) deg() int        { return int(uint64(d) & nodeMask) }

// PEdgeDeg is an edge with its source's degree: src<<42 | dst<<21 | deg
// (JDD intermediate).
type PEdgeDeg uint64

func packedEdgeDeg(e PEdge, deg int) PEdgeDeg {
	return PEdgeDeg(uint64(e)<<nodeBits | packDeg(deg))
}

// edgeKey returns the packed (src, dst) pair; reverseKey the packed
// (dst, src) pair. The self-join matching x's edge against y's reversed
// edge runs entirely on these keys.
func (d PEdgeDeg) edgeKey() uint64 { return uint64(d) >> nodeBits }
func (d PEdgeDeg) reverseKey() uint64 {
	return ((uint64(d) >> nodeBits & nodeMask) << nodeBits) | (uint64(d) >> (2 * nodeBits))
}
func (d PEdgeDeg) deg() int { return int(uint64(d) & nodeMask) }

// PPathDeg pairs a packed path with one vertex degree (TbD/SbD
// intermediate; 63 + 21 bits exceed one word, so the degree rides
// alongside).
type PPathDeg struct {
	P   PPath
	Deg int32
}

func (x PPathDeg) unpack() PathDeg {
	return PathDeg{Path: x.P.unpack(), Deg: int(x.Deg)}
}

// PPathDeg2 pairs a packed path with two degrees (TbD intermediate).
type PPathDeg2 struct {
	P      PPath
	D1, D2 int32
}
