package mcmc

import "testing"

// TestRunTraceIsReproducible pins the bit-level reproducibility of a
// seeded walk: two identically-built runners must produce identical
// statistics — including the exact FinalScore bits — on repeated runs in
// the same process. This held only to ~1e-13 before the incremental
// engine's flush paths were made order-deterministic (map-ordered
// emission perturbed the sink's floating-point accumulation and flipped
// near-tie accept decisions), and it is the property a fit's determinism
// guarantees build on.
func TestRunTraceIsReproducible(t *testing.T) {
	a := replicaFixture(t, 500, 20)
	b := replicaFixture(t, 500, 20)
	sa, sb := a.Run(700), b.Run(700)
	if sa != sb {
		t.Errorf("identically-seeded runs diverge: %+v vs %+v", sa, sb)
	}
	ea, eb := a.State().Graph().EdgeList(), b.State().Graph().EdgeList()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts diverge: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge lists diverge at %d: %v vs %v", i, ea[i], eb[i])
		}
	}
}
