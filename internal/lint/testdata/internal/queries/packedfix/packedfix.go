// Package packedfix exercises the packedbounds analyzer: packed key
// words built only from range-checked codes, with 21-bit-consistent
// shifts and masks.
package packedfix

const (
	nodeBits = 21
	nodeMask = 1<<nodeBits - 1
)

// PEdge is the fixture's packed edge word.
type PEdge uint64

// packNode is the fixture's range-checked entry point.
func packNode(n int64) uint64 {
	if n < 0 || n > nodeMask {
		panic("packedfix: node id out of range")
	}
	return uint64(n)
}

// packEdge builds the word from range-checked codes: allowed.
func packEdge(src, dst int64) PEdge {
	return PEdge(packNode(src)<<nodeBits | packNode(dst))
}

func (e PEdge) srcKey() uint64 { return uint64(e) >> nodeBits }
func (e PEdge) dstKey() uint64 { return uint64(e) & nodeMask }

// raw builds the word from arbitrary integers: flagged.
func raw(src, dst uint64) PEdge {
	return PEdge(src<<nodeBits | dst) // want `not provably below 2\^21`
}

// kernel assembles raw codes; the declaration directive exempts its
// body and moves the proof obligation to call sites.
//
//wpinq:packed-kernel fixture kernel; the analyzer validates every call site instead
func kernel(a, b uint64) PEdge {
	return PEdge(a<<nodeBits | b)
}

// viaAccessors passes packed accessor values to the kernel: allowed.
func viaAccessors(e PEdge) PEdge {
	return kernel(e.srcKey(), e.dstKey())
}

// viaLocal routes an accessor value through a local: allowed.
func viaLocal(e PEdge) PEdge {
	s := e.srcKey()
	return kernel(s, 0)
}

// viaRaw passes an arbitrary integer to the kernel: flagged.
func viaRaw(x uint64) PEdge {
	return kernel(x, 0) // want `packed-kernel argument`
}

// badShift extracts a field at a non-node boundary: flagged.
func badShift(e PEdge) uint64 {
	return uint64(e) >> 16 // want `not a multiple`
}

// badMask selects a partial field: flagged.
func badMask(e PEdge) uint64 {
	return uint64(e) & 0xFFFF // want `does not select whole`
}

// sanctioned carries the reasoned line directive.
func sanctioned(x uint64) PEdge {
	//wpinq:packed-ok fixture-sanctioned raw construction for a caller that guarantees the range
	return PEdge(x)
}
