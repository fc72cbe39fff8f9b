//go:build !race

// Race builds instrument every allocation, so AllocsPerRun counts are
// meaningless there.

package workload_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"wpinq/internal/engine"
	"wpinq/internal/graph"
	"wpinq/internal/incremental"
	"wpinq/internal/mcmc"
	"wpinq/internal/workload"
)

// TestSteadyStateAllocs pins the zero-alloc claim of the pooled hot
// path: once the walk is warm — every group the proposals churn has
// been through the freelist at least once — a committed or aborted
// proposal on the fused 5-workload plan must run in a handful of
// allocations, not O(touched records).
//
// The budget sits next to what it measures: AllocsPerRun's integral
// average over 100 proposals reads 0.0 to 2.0 from process to process
// (the runtime seeds each map's hash per process, which moves the
// proposals on which a state map's table splits), so reintroducing
// per-push batch or undo allocation fails immediately. The rows are
// named after the executor layouts the pin once covered; each walks its
// own proposal sequence.
func TestSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warm-up is slow under -short")
	}
	fits := measureFits(t, testGraph(t), workload.Names(), 2, 1.0, 11)
	const budget = 4 // allocs per proposal (committed or aborted)
	for _, l := range []struct {
		name string
		seed int64 // of the proposals
	}{
		{"engine-1", 99},
		{"engine-3", 1099},
	} {
		t.Run(l.name, func(t *testing.T) {
			g, err := graph.ErdosRenyi(36, 100, rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatal(err)
			}
			p, _, _ := fusePlan(t, fits, true, 1.0, 23)
			state := mcmc.NewGraphState(g, p.Input()) // pushes the initial dataset itself
			rng := rand.New(rand.NewSource(l.seed))
			scorer := p.Scorer()

			// step runs one valid proposal end to end. Commit and abort
			// both stay in the loop so the warm-up and the measured
			// passes exercise the same mix the walk does.
			step := func(commit bool) {
				for {
					prop, ok := state.Propose(rng)
					if !ok {
						continue
					}
					state.Speculate(prop)
					scorer.Score()
					if commit {
						state.Commit()
					} else {
						state.Abort(prop)
					}
					return
				}
			}
			for i := 0; i < 300; i++ {
				step(i%2 == 0)
			}

			committed := testing.AllocsPerRun(100, func() { step(true) })
			aborted := testing.AllocsPerRun(100, func() { step(false) })
			t.Logf("allocs/proposal: committed=%.1f aborted=%.1f (budget %d)", committed, aborted, budget)
			if committed > budget {
				t.Errorf("committed proposal: %.1f allocs, budget %d", committed, budget)
			}
			if aborted > budget {
				t.Errorf("aborted proposal: %.1f allocs, budget %d", aborted, budget)
			}
		})
	}
}

// walkHotStep returns a function running one valid proposal of the
// walk-hot plan (walkHotPlan) end to end, committed or aborted.
func walkHotStep(tb testing.TB) func(commit bool) {
	tb.Helper()
	p, state := walkHotPlan(tb)
	rng := rand.New(rand.NewSource(99))
	scorer := p.Scorer()
	return func(commit bool) {
		for {
			prop, ok := state.Propose(rng)
			if !ok {
				continue
			}
			state.Speculate(prop)
			scorer.Score()
			if commit {
				state.Commit()
			} else {
				state.Abort(prop)
			}
			return
		}
	}
}

// TestSteadyStateAllocsWalkHot pins the per-proposal allocation cost
// where the product runs. TestSteadyStateAllocs warms a 36-node graph
// for 300 steps, by which time every key group has been touched; a real
// fit is a thousand steps over hundreds of vertices, so most proposals
// land on groups no transaction has touched before, and anything
// allocated per first-touched group (the per-group undo logs this test
// was written against: 40 KB and 180 allocations a step here) is paid on
// every step of the fit. The warm-up is deliberately short, the measured
// stretch is one fit's length, and commits outnumber aborts as they do
// at walk-hot's accept rate.
//
// What is left (≈1.2 KB, ≈2.5 allocations a step) is state, not
// scratch: a state table doubles when the walk inserts past its load,
// and a proposal that creates more path keys than the freelist holds
// allocates the new groups. (While that state lived in Go maps, whose
// tables re-split as the walk inserted and deleted keys, it was ≈7 KB
// and ≈3 allocations.)
func TestSteadyStateAllocsWalkHot(t *testing.T) {
	if testing.Short() {
		t.Skip("bulk-loads a 1.2k-edge four-workload plan")
	}
	step := walkHotStep(t)
	for i := 0; i < 20; i++ {
		step(i%8 != 0)
	}
	const steps = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		step(i%8 != 0)
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / steps
	allocs := float64(after.Mallocs-before.Mallocs) / steps
	t.Logf("per proposal: %.0f B, %.1f allocs", bytes, allocs)
	const maxBytes, maxAllocs = 8 << 10, 20
	if bytes > maxBytes {
		t.Errorf("%.0f B per proposal, budget %d", bytes, maxBytes)
	}
	if allocs > maxAllocs {
		t.Errorf("%.1f allocs per proposal, budget %d", allocs, maxAllocs)
	}
}

// BenchmarkWalkHotStep is the profiling handle for the same plan:
// go test -run '^$' -bench WalkHotStep -cpuprofile ... ./internal/workload
func BenchmarkWalkHotStep(b *testing.B) {
	step := walkHotStep(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i%8 != 0)
	}
}

// walkColdStep returns a function running one step of a pow-1e4 walk
// over walk-cold's plan: jdd alone, on HolmeKim(2000, 5), with no
// collector attached. Its one GroupBy (degrees) re-expands the four
// vertex groups a swap touches, all of unit weight, on every proposal.
func walkColdStep(tb testing.TB) func() {
	tb.Helper()
	g, err := graph.HolmeKim(2000, 5, 0.5, rand.New(rand.NewSource(3)))
	if err != nil {
		tb.Fatal(err)
	}
	p := workload.NewPlan()
	for _, fit := range measureFits(tb, g, []string{"jdd"}, 0, 0.1, 11) {
		if err := fit.Attach(p, 0.1); err != nil {
			tb.Fatal(err)
		}
	}
	runner, err := mcmc.NewRunner(mcmc.NewGraphState(g, p.Input()), p.Scorer(), mcmc.Config{Pow: 1e4}, rand.New(rand.NewSource(99)))
	if err != nil {
		tb.Fatal(err)
	}
	return func() { runner.Run(1) }
}

// TestSteadyStateAllocsWalkCold pins the per-proposal allocation cost of
// walk-cold's plan the way TestSteadyStateAllocsWalkHot pins walk-hot's:
// a short warm-up, then one fit's length of steps. It measured 6 B and
// 0.2 allocations a step both before and after GroupBy expanded groups
// in place: the copy and prefix the sorting expansion made were reused
// scratch, so what the in-place path saves is time, not allocation. The
// budget is a few times that: an expansion that allocated its copy per
// call (four vertex groups of ≈ 22 records, twice a proposal) would
// cost kilobytes a step.
func TestSteadyStateAllocsWalkCold(t *testing.T) {
	if testing.Short() {
		t.Skip("measures and bulk-loads jdd on a 10k-edge graph")
	}
	step := walkColdStep(t)
	for i := 0; i < 20; i++ {
		step()
	}
	const steps = 40000 // walk-cold's fit length
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / steps
	allocs := float64(after.Mallocs-before.Mallocs) / steps
	t.Logf("per proposal: %.0f B, %.1f allocs", bytes, allocs)
	const maxBytes, maxAllocs = 256, 1
	if bytes > maxBytes {
		t.Errorf("%.0f B per proposal, budget %d", bytes, maxBytes)
	}
	if allocs > maxAllocs {
		t.Errorf("%.1f allocs per proposal, budget %d", allocs, maxAllocs)
	}
}

// BenchmarkWalkColdStep is the profiling handle for walk-cold's plan:
// go test -run '^$' -bench WalkColdStep -cpu 1 -cpuprofile ... ./internal/workload
func BenchmarkWalkColdStep(b *testing.B) {
	step := walkColdStep(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// star4Step returns a function running one step of a pow-1e4 walk over
// star4-by-degree alone, on root BenchmarkStar4ByDegreeStep's graph and
// measurement (HolmeKim(100, 3), eps 0.5, bucket 5), with no collector
// attached.
func star4Step(tb testing.TB) func() {
	tb.Helper()
	g, err := graph.HolmeKim(100, 3, 0.5, rand.New(rand.NewSource(11)))
	if err != nil {
		tb.Fatal(err)
	}
	p := workload.NewPlan()
	for _, fit := range measureFits(tb, g, []string{"star4-by-degree"}, 5, 0.5, 11) {
		if err := fit.Attach(p, 0.5); err != nil {
			tb.Fatal(err)
		}
	}
	runner, err := mcmc.NewRunner(mcmc.NewGraphState(g, p.Input()), p.Scorer(), mcmc.Config{Pow: 1e4}, rand.New(rand.NewSource(99)))
	if err != nil {
		tb.Fatal(err)
	}
	return func() { runner.Run(1) }
}

// TestSteadyStateAllocsStar4ByDegree pins the per-proposal allocation
// cost of the costliest workload a fit can name, the way the walk-hot and
// walk-cold pins do theirs: a short warm-up, then a measured stretch, a
// short one here since a step costs tens of milliseconds. It measured
// 352 000 B and 7.0 allocations a step over these 20 steps (the same in
// every process: both seeds are fixed), and 452 KB and 6.5 over 60: what
// a step allocates is the state tables growing, not scratch. The budget
// is about three times that; an operator that allocated per touched
// record would cost megabytes a step, as a first push of one swap does
// (root BenchmarkStar4ByDegreeStep at -benchtime 3x reads 59 MB an op).
func TestSteadyStateAllocsStar4ByDegree(t *testing.T) {
	if testing.Short() {
		t.Skip("a star4-by-degree step costs over 100 ms")
	}
	step := star4Step(t)
	for i := 0; i < 2; i++ {
		step()
	}
	const steps = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / steps
	allocs := float64(after.Mallocs-before.Mallocs) / steps
	t.Logf("per proposal: %.0f B, %.1f allocs", bytes, allocs)
	const maxBytes, maxAllocs = 1 << 20, 24
	if bytes > maxBytes {
		t.Errorf("%.0f B per proposal, budget %d", bytes, maxBytes)
	}
	if allocs > maxAllocs {
		t.Errorf("%.1f allocs per proposal, budget %d", allocs, maxAllocs)
	}
}

// TestLoadAllocatesOnce pins what a load is allowed to allocate. One
// bulk push of a paths-shaped self-join — every vertex of a 16-regular
// ring lattice pairs its 16 in-edges with its 16 out-edges, 48 000
// directed edges in, 768 000 records out — must allocate no more than 4×
// the bytes of the batches the join emits — as the bare operator body
// and through the engine. The budget is the accumulator's entry array
// (1×: it is the emitted batch, reserved once from the group sizes), its
// cell table (8 B a cell, at most half full, a power of two: 1–2×) and
// the input side (grouping, the join's own state). The layout this
// replaced — keys, weights and a separate output array each grown from
// nothing, the table rebuilt at every doubling, the engine copying each
// emission — measured 13.8× (bare) and 15.4× (engine); this one 2.25×
// for both. The reduce is injective, so the same rows run again on a
// distinct join (JoinDistinct), whose load builds no cell table: its
// budget is 2×, and it measured 1.3× bare. Through the engine, whose
// node streams its load to a consumer that keeps none of it, the same
// join holds one chunk of its output at a time.
//
// The last row is the wedges tail: the distinct self-join, then a Where
// and a Select to a unit record, which a noisy count sums. No consumer
// keeps what it takes, so the load streams through all three in chunks:
// budget 0.5×. Where each of them emitted one whole batch — the join's,
// the Where's copy of it and the Select's — it measured 2.6×.
func TestLoadAllocatesOnce(t *testing.T) {
	const n, d = 3000, 16
	var edges []incremental.Delta[uint64] // src<<32 | dst
	for v := uint64(0); v < n; v++ {
		for k := uint64(1); k <= d/2; k++ {
			w := (v + k) % n
			edges = append(edges,
				incremental.Delta[uint64]{Record: v<<32 | w, Weight: 1},
				incremental.Delta[uint64]{Record: w<<32 | v, Weight: 1})
		}
	}
	src := func(e uint64) uint64 { return e >> 32 }
	dst := func(e uint64) uint64 { return e & (1<<32 - 1) }
	path := func(x, y uint64) [2]uint64 { return [2]uint64{x, y} }
	emitted := 0
	count := func(batch []incremental.Delta[[2]uint64]) { emitted += len(batch) }
	load := func(row string, push func([]incremental.Delta[uint64]), budget float64) {
		t.Helper()
		emitted = 0
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		push(edges)
		runtime.ReadMemStats(&after)
		if emitted != n*d*d {
			t.Fatalf("%s: the load emitted %d records, want %d", row, emitted, n*d*d)
		}
		out := float64(emitted) * float64(unsafe.Sizeof(incremental.Delta[[2]uint64]{}))
		multiple := float64(after.TotalAlloc-before.TotalAlloc) / out
		t.Logf("%s: %.1f MB emitted, %.2f× that allocated", row, out/1e6, multiple)
		if multiple > budget {
			t.Errorf("%s: the load allocated %.2f× the bytes it emitted, budget %g×", row, multiple, budget)
		}
	}

	for _, distinct := range []bool{false, true} {
		body, join, budget := incremental.Join[uint64, uint64, uint64, [2]uint64], engine.Join[uint64, uint64, uint64, [2]uint64], 4.0
		if distinct {
			body = func(keyA, keyB func(uint64) uint64, reduce func(x, y uint64) [2]uint64, out incremental.Handler[[2]uint64]) *incremental.JoinNode[uint64, uint64, uint64, [2]uint64] {
				return incremental.JoinDistinct(keyA, keyB, reduce, out, nil)
			}
			join, budget = engine.JoinDistinct[uint64, uint64, uint64, [2]uint64], 2
		}
		for _, bare := range []bool{true, false} {
			var push func([]incremental.Delta[uint64])
			if bare {
				j := body(dst, src, path, count)
				push = func(b []incremental.Delta[uint64]) { j.ApplyLeft(b); j.ApplyRight(b) }
			} else {
				in := engine.NewInput[uint64](engine.New())
				join(in, in, dst, src, path).Subscribe(count)
				push = in.Push
			}
			load(fmt.Sprintf("distinct=%v bare=%v", distinct, bare), push, budget)
		}
	}

	type unit struct{}
	in := engine.NewInput[uint64](engine.New())
	paths := engine.JoinDistinct(in, in, dst, src, path)
	paths.Subscribe(count)
	open := engine.Where(paths, func(p [2]uint64) bool { return src(p[0]) != dst(p[1]) })
	wedges := engine.Select(open, func([2]uint64) unit { return unit{} })
	sink := incremental.NewNoisyCountSink[unit](wedges, incremental.MapObservations[unit]{}, nil, 1)
	load("streamed tail", in.Push, 0.5)
	// Each vertex closes 16 of its 256 paths; each path weighs 1/(16+16).
	if got, want := sink.Weight(unit{}), float64(n*(d*d-d))/(2*d); got != want {
		t.Errorf("streamed tail: the noisy count reads %v, want %v", got, want)
	}
}

// liveHeap returns the bytes reachable after a full collection.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// TestLoadLeavesNothingPinned pins that what a load moves is garbage as
// soon as the load returns. The engine's ports, chunk tables and input
// used to truncate the batch lists they had consumed without clearing
// them, so every batch of a load — the operators' released arrays —
// stayed reachable until later rounds happened to overwrite the slots:
// on this plan (the benchmark's bulk-load: fused jdd,wedges over
// HolmeKim(4000,5)) the live heap read 67 MB after the load
// and 18 MB two hundred proposals later. It must now read the same, to
// within 10 %, at both points: the state, and nothing else.
func TestLoadLeavesNothingPinned(t *testing.T) {
	g, err := graph.HolmeKim(4000, 5, 0.5, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	fits := measureFits(t, g, []string{"jdd", "wedges"}, 0, 0.1, 11)
	base := liveHeap()
	p := workload.NewPlan()
	for _, fit := range fits {
		if err := fit.Attach(p, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	state := mcmc.NewGraphState(g, p.Input())
	loaded := liveHeap() - base
	runner, err := mcmc.NewRunner(state, p.Scorer(), mcmc.Config{Pow: 1e4}, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	runner.Run(200)
	walked := liveHeap() - base
	runtime.KeepAlive(p)
	t.Logf("live heap: %.1f MB after the load, %.1f MB after 200 proposals", loaded/(1<<20), walked/(1<<20))
	if loaded > 1.1*walked {
		t.Errorf("live heap after the load is %.1f MB, %.1f MB after 200 proposals: the load is still pinned",
			loaded/(1<<20), walked/(1<<20))
	}
}
