package plan

import (
	"reflect"
	"strings"
	"testing"

	"wpinq/internal/engine"
	"wpinq/internal/incremental"
)

// TestSharedFusesByKey pins the memo contract: the first request for a
// key builds, later requests for the same key return the same value and
// count as sharing, and distinct keys stay distinct.
func TestSharedFusesByKey(t *testing.T) {
	m := New(true)
	builds := 0
	build := func() *int { builds++; v := builds; return &v }

	a1 := Shared(m, Node{Key: "a", Inputs: []string{"edges"}}, build)
	a2 := Shared(m, Node{Key: "a", Inputs: []string{"edges"}}, build)
	b := Shared(m, Node{Key: "b", Inputs: []string{"a"}}, build)

	if builds != 2 {
		t.Fatalf("built %d fragments, want 2 (a shared, b private)", builds)
	}
	if a1 != a2 {
		t.Fatalf("second request for key a returned a different value")
	}
	if a1 == b {
		t.Fatalf("keys a and b resolved to the same fragment")
	}
	st := m.Stats()
	if st.Requests != 3 || st.Fragments != 2 || st.Shared != 1 {
		t.Fatalf("stats = %+v, want 3 requests, 2 fragments, 1 shared", st)
	}
}

// TestSharedNamesBothTypesOnKeyCollision pins the diagnosis of a broken
// key contract: one key requested at two stream types panics naming the
// key and both types, not with a bare interface-conversion error.
func TestSharedNamesBothTypesOnKeyCollision(t *testing.T) {
	m := New(true)
	Shared(m, Node{Key: "degrees"}, func() incremental.Source[int] { return engine.NewInput[int](engine.New()) })
	defer func() {
		msg, _ := recover().(string)
		for _, want := range []string{`"degrees"`, "incremental.Source[string]", "*engine.Input[int]"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q does not mention %s", msg, want)
			}
		}
	}()
	Shared(m, Node{Key: "degrees"}, func() incremental.Source[string] { return engine.NewInput[string](engine.New()) })
	t.Error("key requested at a second stream type was served")
}

// TestUnfusedMemoBuildsPrivatelyButRecords pins the differential
// baseline: a non-fusing memo builds every request (per-workload
// pipelines) while still recording the would-be DAG.
func TestUnfusedMemoBuildsPrivatelyButRecords(t *testing.T) {
	m := New(false)
	builds := 0
	build := func() *int { builds++; v := builds; return &v }

	a1 := Shared(m, Node{Key: "a"}, build)
	a2 := Shared(m, Node{Key: "a"}, build)
	if builds != 2 {
		t.Fatalf("unfused memo built %d fragments for 2 requests, want 2", builds)
	}
	if a1 == a2 {
		t.Fatalf("unfused memo shared a fragment")
	}
	st := m.Stats()
	if st.Requests != 2 || st.Fragments != 1 || st.Shared != 0 {
		t.Fatalf("stats = %+v, want 2 requests, 1 recorded fragment, 0 shared", st)
	}
	if m.Fused() {
		t.Fatalf("New(false).Fused() = true")
	}
}

// TestDAGAndFanOuts pins the fused-plan record: construction order,
// reference counts, and the fan-out (divergence point) listing.
func TestDAGAndFanOuts(t *testing.T) {
	m := New(true)
	mk := func() struct{} { return struct{}{} }
	Shared(m, Node{Key: "paths", Inputs: []string{"edges"}}, mk)
	Shared(m, Node{Key: "tbi", Inputs: []string{"paths"}}, mk)
	Shared(m, Node{Key: "paths", Inputs: []string{"edges"}}, mk)
	Shared(m, Node{Key: "wedges", Inputs: []string{"paths"}}, mk)

	dag := m.DAG()
	keys := make([]string, len(dag))
	for i, f := range dag {
		keys[i] = f.Key
	}
	if want := []string{"paths", "tbi", "wedges"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("DAG keys = %v, want %v (construction order)", keys, want)
	}
	if dag[0].Refs != 2 {
		t.Fatalf("paths Refs = %d, want 2", dag[0].Refs)
	}
	fans := m.FanOuts()
	if len(fans) != 1 || fans[0].Key != "paths" {
		t.Fatalf("FanOuts = %+v, want exactly the shared paths fragment", fans)
	}
}

// TestNilMemoBuilds pins nil-memo behavior: Shared degrades to a plain
// build and the accessors return zero values.
func TestNilMemoBuilds(t *testing.T) {
	var m *Memo
	built := false
	Shared(m, Node{Key: "x"}, func() int { built = true; return 7 })
	if !built {
		t.Fatalf("nil memo did not build")
	}
	if m.Fused() || m.Pushes() != 0 || m.DAG() != nil || len(m.FanOuts()) != 0 {
		t.Fatalf("nil memo accessors returned non-zero values")
	}
	if st := m.Stats(); st != (Stats{}) {
		t.Fatalf("nil memo Stats = %+v, want zero", st)
	}
}

// TestCountTapsBatchDeliveries pins the propagation counter: every
// non-empty batch delivered through a counted stream bumps Pushes, and
// the tap does not disturb other subscribers.
func TestCountTapsBatchDeliveries(t *testing.T) {
	m := New(true)
	in := engine.NewInput[int](engine.New())
	Count[int](m, in)
	var seen int
	in.Subscribe(func(batch []incremental.Delta[int]) { seen += len(batch) })

	in.Push([]incremental.Delta[int]{{Record: 1, Weight: 1}})
	in.Push([]incremental.Delta[int]{{Record: 2, Weight: 1}, {Record: 3, Weight: 1}})
	if m.Pushes() != 2 {
		t.Fatalf("Pushes = %d after 2 batches, want 2", m.Pushes())
	}
	if seen != 3 {
		t.Fatalf("downstream subscriber saw %d deltas, want 3", seen)
	}
}
