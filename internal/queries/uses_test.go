package queries

import (
	"fmt"
	"testing"

	"wpinq/internal/budget"
	"wpinq/internal/core"
	"wpinq/internal/graph"
	"wpinq/internal/weighted"
)

// counts returns what Uses folds e to and the count core accumulates
// through a one-shot lowering of e over an empty source: what a
// measurement of e is charged.
func counts[T comparable](e Expr[T]) [2]int {
	src := budget.NewSource("edges", 0)
	return [2]int{Uses(e), OneShot(e, core.FromDataset(weighted.New[graph.Edge](), src)).Uses().Count(src)}
}

// TestUsesIsTheOneShotCount pins Uses, a fold over the tree whose counts
// are set as the nodes are built, to the count core charges when the tree
// is lowered and measured: for the tree of every registered workload
// (tbi, tbd, jdd, wedges, star4-by-degree, as builtin.go builds them),
// the degree analyses, SbD, and MotifCount and MotifByDegree on every
// named pattern. A node that dropped an operand's count, or counted a
// shared node once where core reads it twice, shows here before it moves
// a charged budget.
func TestUsesIsTheOneShotCount(t *testing.T) {
	trees := map[string][2]int{
		"tbi":             counts(TbI()),
		"tbd k=1":         counts(TbD(1)),
		"tbd k=5":         counts(TbD(5)),
		"jdd":             counts(JDD()),
		"wedges":          counts(WedgeCount()),
		"nodes":           counts(Nodes()),
		"node count":      counts(NodeCount()),
		"degrees":         counts(Degrees(2)),
		"degree ccdf":     counts(DegreeCCDF()),
		"degree sequence": counts(DegreeSequence()),
		"paths":           counts(Paths()),
		"sbd":             counts(SbD()),
	}
	for name, p := range map[string]Pattern{
		"triangle": TrianglePattern, "square": SquarePattern, "wedge": PathPattern3, "star4": StarPattern4,
	} {
		m, err := MotifCount(p)
		if err != nil {
			t.Fatal(err)
		}
		trees["motif "+name] = counts(m)
		for _, bucket := range []int{1, 5} {
			d, err := MotifByDegree(p, bucket)
			if err != nil {
				t.Fatal(err)
			}
			trees[fmt.Sprintf("%s by degree k=%d", name, bucket)] = counts(d)
		}
	}
	for name, c := range trees {
		if c[0] != c[1] || c[0] < 1 {
			t.Errorf("%s: Uses folds to %d, a one-shot lowering charges %d", name, c[0], c[1])
		}
	}
}
