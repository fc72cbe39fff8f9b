package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// FuzzReadEdgeList ensures the parser never panics and that whatever it
// accepts round-trips through WriteEdgeList.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("1\t2\n2\t3\n")
	f.Add("# comment\n\n5 6\n")
	f.Add("1 1\n")                    // self loop: dropped
	f.Add("1 2\n1 2\n")               // duplicate: dropped
	f.Add("-3 7\n")                   // negative IDs are fine
	f.Add("99999999999999999999 1\n") // overflow: error
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		back, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("round trip re-read: %v", err)
		}
		if back.NumEdges() != g.NumEdges() || back.NumNodes() != g.NumNodes() {
			t.Fatalf("round trip changed the graph: (%d,%d) -> (%d,%d)",
				g.NumNodes(), g.NumEdges(), back.NumNodes(), back.NumEdges())
		}
	})
}

// fuzzDegrees decodes bytes into a degree sequence of at most 64 vertices,
// three bytes a vertex: a mode and a 16-bit value. Most degrees land below
// n (so that many sequences are graphical); the other modes reach n and
// above, the neighborhood of MaxInt (where a sum of two wraps), and
// negatives.
func fuzzDegrees(data []byte) []int {
	n := min(len(data)/3, 64)
	degrees := make([]int, n)
	for i := range degrees {
		mode, x := data[3*i], int(binary.LittleEndian.Uint16(data[3*i+1:]))
		switch {
		case mode < 200:
			degrees[i] = x % n
		case mode < 230:
			degrees[i] = n + x
		case mode < 250:
			degrees[i] = math.MaxInt - x
		default:
			degrees[i] = -x
		}
	}
	return degrees
}

// FuzzFromDegreeSequence feeds FromDegreeSequence arbitrary sequences: it
// must refuse or realize each one without panicking or allocating by a
// degree's value (a degree near MaxInt would exhaust memory at once),
// agree with havelHakimiReference on which and on every edge, and mix to a
// graph with exactly the degrees asked for (checkAgainstReference).
func FuzzFromDegreeSequence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 1, 0})                   // one edge
	f.Add([]byte{0, 2, 0, 0, 2, 0, 0, 2, 0})          // triangle
	f.Add([]byte{0, 1, 0, 0, 1, 0, 0, 1, 0})          // odd sum
	f.Add([]byte{220, 0, 0, 0, 1, 0})                 // a degree of n
	f.Add([]byte{240, 0, 0, 240, 0, 0, 0, 1, 0})      // two of MaxInt: the sum wraps
	f.Add([]byte{255, 1, 0, 0, 1, 0})                 // negative
	f.Add([]byte{0, 3, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0}) // star
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, "fuzz", fuzzDegrees(data))
	})
}
