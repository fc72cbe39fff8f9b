package mcmc

import (
	"testing"

	"wpinq/internal/graph"
	"wpinq/internal/incremental"
)

func TestPowScheduleValidation(t *testing.T) {
	in := newEdgeInput()
	s := NewGraphState(ringGraph(8), in)
	// PowSchedule alone (Pow zero) must be accepted.
	sched := func(step int) float64 { return 1 + float64(step) }
	if _, err := NewRunner(s, incremental.NewScorer(), Config{PowSchedule: sched}, testRng(1)); err != nil {
		t.Fatalf("PowSchedule-only config rejected: %v", err)
	}
}

func TestAnnealingAcceptsMoreEarly(t *testing.T) {
	// With a cold->hot schedule (tiny pow first, huge pow later), the
	// early phase must accept a larger share of proposals than the late
	// phase: early the posterior is nearly flat, late it is near-greedy.
	rng := testRng(2)
	g, err := graph.ErdosRenyi(60, 180, rng)
	if err != nil {
		t.Fatal(err)
	}
	state, scorer := buildTbIFixture(g, 50.0, 0.5)
	const half = 2500
	r, err := NewRunner(state, scorer, Config{
		PowSchedule: func(step int) float64 {
			if step < half {
				return 0.01
			}
			return 1e6
		},
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	early := r.Run(half)
	late := r.Run(half)
	if early.AcceptRate() <= late.AcceptRate() {
		t.Errorf("acceptance early %.3f <= late %.3f; annealing should cool",
			early.AcceptRate(), late.AcceptRate())
	}
	// Late phase is near-greedy: the score must not have worsened.
	if late.FinalScore > early.FinalScore+1e-6 {
		t.Errorf("greedy phase worsened the score: %v -> %v", early.FinalScore, late.FinalScore)
	}
}

func TestStepCounterAdvancesAcrossRuns(t *testing.T) {
	rng := testRng(3)
	g, err := graph.ErdosRenyi(40, 80, rng)
	if err != nil {
		t.Fatal(err)
	}
	state, scorer := buildTbIFixture(g, 10.0, 0.5)
	var seen []int
	r, err := NewRunner(state, scorer, Config{
		Pow:    100,
		OnStep: func(step int, _ bool, _ float64) { seen = append(seen, step) },
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	r.Run(3)
	r.Run(2)
	want := []int{0, 1, 2, 3, 4}
	if len(seen) != len(want) {
		t.Fatalf("OnStep steps = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("OnStep steps = %v, want %v", seen, want)
		}
	}
}
