package main

// The motif subcommand releases a DP motif measurement of an edge-list
// file: the weighted prevalence of a named pattern (Section 3.5),
// optionally broken down by vertex degrees.

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"wpinq/internal/budget"
	"wpinq/internal/core"
	"wpinq/internal/graph"
	"wpinq/internal/queries"
)

var namedPatterns = map[string]queries.Pattern{
	"triangle": queries.TrianglePattern,
	"square":   queries.SquarePattern,
	"wedge":    queries.PathPattern3,
	"star4":    queries.StarPattern4,
}

func runMotif(args []string) error {
	fs := flag.NewFlagSet("motif", flag.ContinueOnError)
	in := fs.String("in", "", "input edge list")
	name := fs.String("pattern", "triangle", "pattern: triangle, square, wedge, star4")
	eps := fs.Float64("eps", 0.1, "privacy parameter (cost = uses * eps)")
	byDegree := fs.Bool("by-degree", false, "release per-degree-profile counts (costs more uses)")
	bucket := fs.Int("bucket", 1, "degree bucket width for -by-degree")
	seed := fs.Int64("seed", 1, "random seed for the noise")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("motif: -in is required")
	}
	pattern, ok := namedPatterns[*name]
	if !ok {
		return fmt.Errorf("motif: unknown pattern %q", *name)
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := graph.ReadEdgeList(f)
	if err != nil {
		return err
	}
	if g.NumEdges() == 0 {
		return fmt.Errorf("motif: %s contains no edges", *in)
	}
	rng := rand.New(rand.NewSource(*seed))

	if !*byDegree {
		q, err := queries.MotifCount(pattern)
		if err != nil {
			return err
		}
		hist, spent, err := releaseMotif(q, g, *eps, rng)
		if err != nil {
			return err
		}
		fmt.Printf("%s weighted prevalence: %.4f (privacy cost %.4g)\n",
			*name, hist.Get(queries.Unit{}), spent)
		return nil
	}

	q, err := queries.MotifByDegree(pattern, *bucket)
	if err != nil {
		return err
	}
	// The degree joins pack the file's node ids, ranked onto [0, n).
	if err := queries.CheckNodeRange(g.NumNodes()); err != nil {
		return err
	}
	hist, spent, err := releaseMotif(q, g, *eps, rng)
	if err != nil {
		return err
	}
	released := hist.Materialized()
	type row struct {
		profile queries.DegProfile
		w       float64
	}
	rows := make([]row, 0, len(released))
	for p, w := range released {
		rows = append(rows, row{p, w})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].w > rows[j].w })
	fmt.Printf("%s weighted prevalence by degree profile (privacy cost %.4g):\n", *name, spent)
	for _, r := range rows {
		fmt.Printf("  %v  %.4f\n", r.profile[:pattern.K], r.w)
	}
	return nil
}

// releaseMotif measures q on g, its ids ranked onto [0, n), with a budget
// sized exactly to the tree's uses of the edge dataset, returning the
// release and its cost.
func releaseMotif[T comparable](q queries.Expr[T], g *graph.Graph, eps float64, rng *rand.Rand) (*core.Histogram[T], float64, error) {
	src := budget.NewSource("edges", float64(queries.Uses(q))*eps*(1+1e-9))
	edges := core.FromDataset(graph.SymmetricEdges(g.Ranked()), src)
	hist, err := core.NoisyCount(queries.OneShot(q, edges), eps, rng)
	return hist, src.Spent(), err
}
