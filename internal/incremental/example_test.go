package incremental_test

import (
	"fmt"

	"wpinq/internal/engine"
	"wpinq/internal/incremental"
	"wpinq/internal/weighted"
)

func Example() {
	// Wire an operator once, on an engine; then push differences through
	// it. (incremental.GroupBy is the body the engine keeps per shard.)
	in := engine.NewInput[string](engine.New(1))
	byLen := engine.GroupBy(in,
		func(s string) int { return len(s) },
		func(words []string) int { return len(words) })
	out := incremental.Collect(byLen)
	five := weighted.Grouped[int, int]{Key: 5, Result: 1}   // one word of length 5
	two6 := weighted.Grouped[int, int]{Key: 6, Result: 2}   // two words of length 6
	banana := weighted.Grouped[int, int]{Key: 6, Result: 1} // the heaviest word of length 6

	in.Push([]incremental.Delta[string]{
		{Record: "apple", Weight: 1},
		{Record: "banana", Weight: 2},
		{Record: "cherry", Weight: 1},
	})
	fmt.Println("one of length 5:", out.Weight(five))
	fmt.Println("heaviest of length 6:", out.Weight(banana))
	fmt.Println("two of length 6:", out.Weight(two6))

	// Retract one banana: only the difference propagates.
	in.Push([]incremental.Delta[string]{{Record: "banana", Weight: -1}})
	fmt.Println("heaviest of length 6 after retraction:", out.Weight(banana))
	// Output:
	// one of length 5: 0.5
	// heaviest of length 6: 0.5
	// two of length 6: 0.5
	// heaviest of length 6 after retraction: 0
}

func ExampleNewNoisyCountSink() {
	in := engine.NewInput[string](engine.New(1))
	sink := incremental.NewNoisyCountSink[string](
		in,
		incremental.MapObservations[string]{"x": 3.0},
		[]string{"x"},
		0.5,
	)
	fmt.Printf("L1 before: %.1f\n", sink.L1())
	in.Push([]incremental.Delta[string]{{Record: "x", Weight: 2}})
	fmt.Printf("L1 after: %.1f\n", sink.L1())
	// Output:
	// L1 before: 3.0
	// L1 after: 1.0
}
