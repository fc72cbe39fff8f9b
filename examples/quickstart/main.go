// Quickstart: the wPINQ basics on the paper's running example datasets
// (Section 2.1):
//
//	A = {("1", 0.75), ("2", 2.0), ("3", 1.0)}
//	B = {("1", 3.0),  ("4", 2.0)}
//
// It walks through transformations, a differentially private release with
// NoisyCount, the derived noise for never-seen records, and the privacy
// budget running out.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strconv"

	"wpinq/internal/budget"
	"wpinq/internal/core"
	"wpinq/internal/weighted"
)

func main() {
	rng := rand.New(rand.NewSource(42))

	a := weighted.FromPairs(
		weighted.Pair[string]{Record: "1", Weight: 0.75},
		weighted.Pair[string]{Record: "2", Weight: 2.0},
		weighted.Pair[string]{Record: "3", Weight: 1.0},
	)
	b := weighted.FromPairs(
		weighted.Pair[string]{Record: "1", Weight: 3.0},
		weighted.Pair[string]{Record: "4", Weight: 2.0},
	)
	fmt.Println("A =", a)
	fmt.Println("B =", b)

	// Register A as a protected dataset with a total privacy budget of 1.0.
	src := budget.NewSource("A", 1.0)
	ca := core.FromDataset(a, src)
	cb := core.FromPublic(b) // B is public in this demo

	// Stable transformations are free; they only rescale weights.
	parity := core.Select(ca, func(x string) string {
		n, _ := strconv.Atoi(x)
		if n%2 == 0 {
			return "even"
		}
		return "odd"
	})
	joined := core.Join(ca, cb,
		func(x string) int { n, _ := strconv.Atoi(x); return n % 2 },
		func(y string) int { n, _ := strconv.Atoi(y); return n % 2 },
		func(x, y string) string { return x + "&" + y })

	// Information is only released through NoisyCount, which charges the
	// budget: eps per use of each protected input.
	hist, err := core.NoisyCount(parity, 0.3, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nNoisyCount(parity, eps=0.3):\n")
	fmt.Printf("  odd  ~ 1.75 + Laplace(1/0.3) = %.3f\n", hist.Get("odd"))
	fmt.Printf("  even ~ 2.00 + Laplace(1/0.3) = %.3f\n", hist.Get("even"))

	// Requesting a record that was never in the data answers with noise —
	// the same value on later queries (Section 2.2's dictionary) because
	// it is derived from the record and the histogram's salt, not because
	// the first answer was stored: asking changes nothing in hist.
	fmt.Printf("  ghost record: %.3f (asked again: %.3f)\n",
		hist.Get("ghost"), hist.Get("ghost"))

	// The join used A once more; this release charges another 0.5.
	jh, err := core.NoisyCount(joined, 0.5, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nNoisyCount(join, eps=0.5): 2&4 = %.3f (true weight 1.0)\n", jh.Get("2&4"))
	fmt.Printf("budget spent: %.2f of 1.00\n", src.Spent())

	// The budget is now 0.8 spent; a further eps=0.3 release must fail.
	if _, err := core.NoisyCount(parity, 0.3, rng); err != nil {
		fmt.Println("\nthird release correctly refused:", err)
	}
}
