package main

import (
	"math/rand"
	"reflect"
	"testing"

	"wpinq/internal/graph"
	"wpinq/internal/queries"
)

// TestReleaseMotifIsBlindToNodeIDs pins the rank in releaseMotif: the
// motif embeddings mark an unassigned slot with -1, so a file whose ids
// are negative must reach them ranked onto [0, n), and then it releases
// what the same graph over 0..n-1 releases.
func TestReleaseMotifIsBlindToNodeIDs(t *testing.T) {
	g, err := graph.HolmeKim(60, 3, 0.7, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	negative := graph.New()
	for _, e := range g.EdgeList() {
		negative.AddEdge(20000*e.Src-1_000_000, 20000*e.Dst-1_000_000)
	}
	count, err := queries.MotifCount(queries.PathPattern3)
	if err != nil {
		t.Fatal(err)
	}
	byDegree, err := queries.MotifByDegree(queries.StarPattern4, 1)
	if err != nil {
		t.Fatal(err)
	}
	release := func(in *graph.Graph) (map[queries.Unit]float64, map[queries.DegProfile]float64) {
		t.Helper()
		c, _, err := releaseMotif(count, in, 1, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		d, _, err := releaseMotif(byDegree, in, 1, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		return c.Materialized(), d.Materialized()
	}
	wantCount, wantByDegree := release(g)
	gotCount, gotByDegree := release(negative)
	if !reflect.DeepEqual(gotCount, wantCount) {
		t.Errorf("wedge count of the relabel %v, want %v", gotCount, wantCount)
	}
	if !reflect.DeepEqual(gotByDegree, wantByDegree) {
		t.Error("4-stars by degree of the relabel differ from the graph's")
	}
}
