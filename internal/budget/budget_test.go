package budget

import (
	"errors"
	"sync"
	"testing"
)

func TestChargeWithinBudget(t *testing.T) {
	s := NewSource("edges", 1.0)
	if err := s.Charge(0.4); err != nil {
		t.Fatal(err)
	}
	if err := s.Charge(0.6); err != nil {
		t.Fatal(err)
	}
	if got := s.Spent(); got != 1.0 {
		t.Errorf("spent = %v, want 1.0", got)
	}
	if got := s.Remaining(); got != 0.0 {
		t.Errorf("remaining = %v, want 0", got)
	}
}

func TestChargeOverdraws(t *testing.T) {
	s := NewSource("edges", 0.5)
	if err := s.Charge(0.6); err == nil {
		t.Fatal("overdraw should fail")
	}
	var ib *InsufficientBudgetError
	err := s.Charge(1.0)
	if !errors.As(err, &ib) {
		t.Fatalf("error type = %T, want *InsufficientBudgetError", err)
	}
	if ib.Source != "edges" || ib.Remaining != 0.5 {
		t.Errorf("error details = %+v", ib)
	}
	// A failed charge must not change state.
	if s.Spent() != 0 {
		t.Errorf("spent after failed charge = %v, want 0", s.Spent())
	}
}

func TestNegativeChargeRejected(t *testing.T) {
	s := NewSource("x", 1)
	if err := s.Charge(-0.1); err == nil {
		t.Error("negative charge should fail")
	}
}

func TestUsesPlusAndTimes(t *testing.T) {
	a := NewSource("a", 10)
	b := NewSource("b", 10)
	u := Single(a).Plus(Single(a)).Plus(Single(b))
	if u.Count(a) != 2 || u.Count(b) != 1 {
		t.Errorf("counts = %d, %d; want 2, 1", u.Count(a), u.Count(b))
	}
	v := u.Times(3)
	if v.Count(a) != 6 || v.Count(b) != 3 {
		t.Errorf("scaled counts = %d, %d; want 6, 3", v.Count(a), v.Count(b))
	}
	if u.MaxCount() != 2 {
		t.Errorf("MaxCount = %d, want 2", u.MaxCount())
	}
}

func TestUsesCloneIndependent(t *testing.T) {
	a := NewSource("a", 1)
	u := Single(a)
	c := u.Clone()
	c[a] = 5
	if u.Count(a) != 1 {
		t.Error("Clone is not independent")
	}
}

func TestChargeAllMultiplicity(t *testing.T) {
	// The paper's TbD uses the edges source 18 times: aggregating at eps
	// must charge 18*eps.
	edges := NewSource("edges", 10)
	u := Single(edges).Times(18)
	if err := u.ChargeAll(0.1); err != nil {
		t.Fatal(err)
	}
	if got, want := edges.Spent(), 1.8; got != want {
		t.Errorf("spent = %v, want %v", got, want)
	}
}

func TestChargeAllAtomicRollback(t *testing.T) {
	// If one source lacks budget, no source may be charged.
	rich := NewSource("a-rich", 100)
	poor := NewSource("b-poor", 0.1)
	u := Single(rich).Plus(Single(poor))
	if err := u.ChargeAll(1.0); err == nil {
		t.Fatal("ChargeAll should fail when any source is overdrawn")
	}
	if rich.Spent() != 0 || poor.Spent() != 0 {
		t.Errorf("partial charge leaked: rich=%v poor=%v", rich.Spent(), poor.Spent())
	}
}

func TestChargeAllCost(t *testing.T) {
	a := NewSource("a", 10)
	b := NewSource("b", 10)
	u := Uses{a: 4, b: 2}
	if got, want := u.Cost(0.5), 3.0; got != want {
		t.Errorf("Cost = %v, want %v", got, want)
	}
}

func TestConcurrentCharges(t *testing.T) {
	s := NewSource("conc", 1000)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := s.Charge(1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.Spent() != 1000 {
		t.Errorf("spent = %v, want 1000", s.Spent())
	}
	if err := s.Charge(0.5); err == nil {
		t.Error("exhausted source accepted another charge")
	}
}

func TestNilUsesValid(t *testing.T) {
	var u Uses
	if err := u.ChargeAll(1.0); err != nil {
		t.Errorf("empty plan should charge nothing: %v", err)
	}
	if u.MaxCount() != 0 || u.Cost(1) != 0 {
		t.Error("empty plan should have zero cost")
	}
}

func TestSnapshot(t *testing.T) {
	s := NewSource("snap", 2)
	if err := s.Charge(0.5); err != nil {
		t.Fatal(err)
	}
	got := s.Snapshot()
	want := Snapshot{Name: "snap", Budget: 2, Spent: 0.5, Remaining: 1.5}
	if got != want {
		t.Errorf("Snapshot() = %+v, want %+v", got, want)
	}
	if got.Spent+got.Remaining != got.Budget {
		t.Errorf("snapshot not internally consistent: %+v", got)
	}
	if b := s.Budget(); b != 2 {
		t.Errorf("Budget() = %v, want 2", b)
	}
}
