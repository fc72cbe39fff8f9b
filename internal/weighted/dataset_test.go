package weighted

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// paperA and paperB are the running example datasets of Section 2.1:
//
//	A = {("1", 0.75), ("2", 2.0), ("3", 1.0)}
//	B = {("1", 3.0), ("4", 2.0)}
func paperA() *Dataset[string] {
	return FromPairs(Pair[string]{"1", 0.75}, Pair[string]{"2", 2.0}, Pair[string]{"3", 1.0})
}

func paperB() *Dataset[string] {
	return FromPairs(Pair[string]{"1", 3.0}, Pair[string]{"4", 2.0})
}

func TestWeightLookup(t *testing.T) {
	a := paperA()
	if got := a.Weight("2"); got != 2.0 {
		t.Errorf("A(2) = %v, want 2.0", got)
	}
	if got := a.Weight("0"); got != 0.0 {
		t.Errorf("A(0) = %v, want 0.0 for absent record", got)
	}
	b := paperB()
	if got := b.Weight("0"); got != 0.0 {
		t.Errorf("B(0) = %v, want 0.0", got)
	}
}

func TestNorm(t *testing.T) {
	if got, want := paperA().Norm(), 3.75; got != want {
		t.Errorf("||A|| = %v, want %v", got, want)
	}
	if got, want := paperB().Norm(), 5.0; got != want {
		t.Errorf("||B|| = %v, want %v", got, want)
	}
	neg := FromPairs(Pair[int]{1, -2.0}, Pair[int]{2, 3.0})
	if got, want := neg.Norm(), 5.0; got != want {
		t.Errorf("norm with negative weights = %v, want %v", got, want)
	}
	if got, want := neg.Total(), 1.0; got != want {
		t.Errorf("total with negative weights = %v, want %v", got, want)
	}
}

func TestAddAccumulatesAndCancels(t *testing.T) {
	d := New[string]()
	d.Add("x", 1.5)
	d.Add("x", 0.5)
	if got := d.Weight("x"); got != 2.0 {
		t.Errorf("accumulated weight = %v, want 2.0", got)
	}
	d.Add("x", -2.0)
	if got := d.Weight("x"); got != 0 {
		t.Errorf("cancelled weight = %v, want 0", got)
	}
	if d.Len() != 0 {
		t.Errorf("Len after cancellation = %d, want 0", d.Len())
	}
}

func TestZeroValueDatasetUsable(t *testing.T) {
	var d Dataset[int]
	if d.Weight(1) != 0 || d.Norm() != 0 || d.Len() != 0 {
		t.Fatal("zero-value dataset should behave as empty")
	}
	d.Add(1, 2.5)
	if d.Weight(1) != 2.5 {
		t.Errorf("weight after Add on zero value = %v, want 2.5", d.Weight(1))
	}
}

func TestSetAndRemove(t *testing.T) {
	d := New[int]()
	d.Set(7, 4.0)
	if d.Weight(7) != 4.0 {
		t.Errorf("Set: weight = %v, want 4.0", d.Weight(7))
	}
	d.Set(7, 0)
	if d.Len() != 0 {
		t.Errorf("Set to zero should remove; Len = %d", d.Len())
	}
	d.Set(8, 1)
	d.Remove(8)
	if d.Weight(8) != 0 {
		t.Error("Remove did not delete record")
	}
}

func TestDistance(t *testing.T) {
	a, b := paperA(), paperB()
	// ||A-B|| = |0.75-3| + |2-0| + |1-0| + |0-2| = 2.25 + 2 + 1 + 2 = 7.25
	if got, want := Distance(a, b), 7.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("||A-B|| = %v, want %v", got, want)
	}
	if got := Distance(a, a.Clone()); got != 0 {
		t.Errorf("||A-A|| = %v, want 0", got)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(aw, bw []float64) bool {
		a, b := fromWeights(aw), fromWeights(bw)
		return math.Abs(Distance(a, b)-Distance(b, a)) < 1e-9
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	f := func(aw, bw, cw []float64) bool {
		a, b, c := fromWeights(aw), fromWeights(bw), fromWeights(cw)
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)+1e-9
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := paperA()
	c := a.Clone()
	c.Add("1", 10)
	if a.Weight("1") != 0.75 {
		t.Error("mutating clone affected original")
	}
}

func TestScale(t *testing.T) {
	a := paperA().Scale(2)
	if got := a.Weight("2"); got != 4.0 {
		t.Errorf("scaled weight = %v, want 4.0", got)
	}
	a.Scale(0)
	if a.Len() != 0 {
		t.Error("Scale(0) should empty the dataset")
	}
}

func TestEqualTolerance(t *testing.T) {
	a := paperA()
	b := paperA()
	b.Add("1", 1e-10)
	if !Equal(a, b, 1e-9) {
		t.Error("datasets within tolerance should be Equal")
	}
	if Equal(a, paperB(), 1e-9) {
		t.Error("distinct datasets reported Equal")
	}
}

func TestFromItemsAccumulates(t *testing.T) {
	d := FromItems("a", "b", "a")
	if d.Weight("a") != 2.0 || d.Weight("b") != 1.0 {
		t.Errorf("FromItems weights = %v, %v; want 2, 1", d.Weight("a"), d.Weight("b"))
	}
}

func TestStringDeterministic(t *testing.T) {
	a := FromPairs(Pair[string]{"b", 1}, Pair[string]{"a", 2})
	want := "{(a, 2), (b, 1)}"
	if got := a.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// fromWeights builds a dataset over small integer records from a weight
// slice, truncating extreme values so property tests stay numerically sane.
func fromWeights(ws []float64) *Dataset[int] {
	d := New[int]()
	for i, w := range ws {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			continue
		}
		// Bound magnitudes to keep products representable.
		w = math.Mod(w, 100)
		d.Add(i%8, w)
	}
	return d
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 200}
}

func TestRangeIsFirstInsertionOrder(t *testing.T) {
	d := New[string]()
	for _, x := range []string{"c", "a", "b"} {
		d.Add(x, 1)
	}
	d.Add("a", 2)  // updating keeps a's place
	d.Set("c", 5)  // so does Set
	d.Add("b", -1) // b's weight returns to zero: its place is given up
	d.Add("d", 1)
	d.Add("b", 1) // re-adding appends at the end
	want := []string{"c", "a", "d", "b"}
	var ranged, paired []string
	d.Range(func(x string, _ float64) { ranged = append(ranged, x) })
	for _, p := range d.Pairs() {
		paired = append(paired, p.Record)
	}
	if !slices.Equal(ranged, want) || !slices.Equal(paired, want) || !slices.Equal(d.Records(), want) {
		t.Errorf("Range %v, Pairs %v, Records %v: all want %v", ranged, paired, d.Records(), want)
	}
	// Canonical order ignores how the dataset was built.
	var sorted []string
	for _, p := range d.PairsSorted() {
		sorted = append(sorted, p.Record)
	}
	if canon := []string{"a", "b", "c", "d"}; !slices.Equal(sorted, canon) {
		t.Errorf("PairsSorted order = %v, want %v", sorted, canon)
	}
	if got := d.Clone().Records(); !slices.Equal(got, want) {
		t.Errorf("Clone order = %v, want %v", got, want)
	}
}

// TestTombstoneCompaction churns a dataset far past the compaction
// threshold through every removing method and checks that the survivors
// keep their relative order, their weights and their positions' index,
// and that the backing slice does not grow with the churn.
func TestTombstoneCompaction(t *testing.T) {
	const n = 10 * minCompact
	d := New[int]()
	for i := 0; i < n; i++ {
		d.Add(i, float64(i+1))
	}
	var want []int
	for i := 0; i < n; i++ {
		switch {
		case i%7 == 0:
			want = append(want, i)
		case i%3 == 0:
			d.Remove(i)
		case i%3 == 1:
			d.Add(i, -float64(i+1))
		default:
			d.Set(i, 0)
		}
	}
	if got := d.Records(); !slices.Equal(got, want) {
		t.Fatalf("order after churn = %v, want %v", got, want)
	}
	if d.Len() != len(want) {
		t.Errorf("Len = %d, want %d", d.Len(), len(want))
	}
	if dead := len(d.recs) - d.Len(); dead > d.Len() && dead >= minCompact {
		t.Errorf("%d tombstones left beside %d live records: compaction did not run", dead, d.Len())
	}
	for _, x := range want {
		if got := d.Weight(x); got != float64(x+1) {
			t.Errorf("Weight(%d) = %v after compaction, want %v", x, got, float64(x+1))
		}
	}
	// Updates after compaction land on the right record.
	d.Add(want[1], 0.5)
	if got := d.Weight(want[1]); got != float64(want[1]+1)+0.5 {
		t.Errorf("Add after compaction hit the wrong record: Weight = %v", got)
	}
	// Steady add/remove churn keeps the slice bounded.
	for i := 0; i < 100*n; i++ {
		d.Add(n+i, 1)
		d.Remove(n + i)
	}
	if len(d.recs) > 2*(len(want)+minCompact) {
		t.Errorf("backing slice grew to %d entries for %d live records", len(d.recs), d.Len())
	}
	if got := d.Records(); !slices.Equal(got, want) {
		t.Errorf("order after steady churn = %v, want %v", got, want)
	}
}

// TestScaleBuriesWithoutSkipping scales most records below Eps in one
// pass: Scale must visit every record exactly once even though it drops
// records as it goes, and must leave a consistent index behind.
func TestScaleBuriesWithoutSkipping(t *testing.T) {
	d := New[int]()
	const n = 8 * minCompact
	for i := 0; i < n; i++ {
		w := 1e-9 // scaled below Eps
		if i%5 == 0 {
			w = 2
		}
		d.Add(i, w)
	}
	d.Scale(1e-6)
	var want []int
	for i := 0; i < n; i += 5 {
		want = append(want, i)
	}
	if got := d.Records(); !slices.Equal(got, want) {
		t.Fatalf("survivors = %v, want %v", got, want)
	}
	for _, x := range want {
		if got := d.Weight(x); math.Abs(got-2e-6) > 1e-18 {
			t.Errorf("Weight(%d) = %v, want 2e-6", x, got)
		}
	}
	if d.Scale(0).Len() != 0 || len(d.Records()) != 0 {
		t.Errorf("Scale(0) left %d records", d.Len())
	}
	d.Add(7, 1)
	if got := d.Records(); !slices.Equal(got, []int{7}) {
		t.Errorf("dataset unusable after Scale(0): %v", got)
	}
}

func TestResetKeepsDatasetUsable(t *testing.T) {
	d := FromItems(3, 1, 2)
	d.Remove(1)
	d.Reset()
	if d.Len() != 0 || d.Norm() != 0 || len(d.Records()) != 0 {
		t.Fatalf("Reset left %v", d)
	}
	d.Add(9, 1)
	d.Add(1, 1)
	if got := d.Records(); !slices.Equal(got, []int{9, 1}) {
		t.Errorf("order after Reset = %v, want [9 1]", got)
	}
}

// TestEqualAndDistanceIgnoreOrder builds one dataset in two insertion
// orders (one of them through removals and re-adds): Equal and Distance
// compare weights, never positions. Weights are dyadic so the sums are
// exact whatever order they are taken in.
func TestEqualAndDistanceIgnoreOrder(t *testing.T) {
	a := New[int]()
	b := New[int]()
	for i := 0; i < 100; i++ {
		a.Add(i, float64(i%8)+0.25)
	}
	for i := 99; i >= 0; i-- {
		b.Add(i, 1)
	}
	for i := 0; i < 100; i += 2 {
		b.Remove(i)
	}
	for i := 0; i < 100; i++ {
		b.Set(i, float64(i%8)+0.25)
	}
	if slices.Equal(a.Records(), b.Records()) {
		t.Fatal("test is vacuous: both datasets iterate in the same order")
	}
	if !Equal(a, b, 0) || !Equal(b, a, 0) {
		t.Error("Equal depends on insertion order")
	}
	if d := Distance(a, b); d != 0 {
		t.Errorf("Distance = %v between reorderings of one dataset", d)
	}
	other := FromPairs(Pair[int]{3, 1}, Pair[int]{1000, 2})
	if dab, dba := Distance(a, other), Distance(b, other); dab != dba {
		t.Errorf("Distance to a third dataset depends on order: %v vs %v", dab, dba)
	}
}
