package lint

import (
	"go/ast"
	"go/types"
)

// DetSource flags sources of run-to-run nondeterminism in the
// determinism-pinned packages (plus the sharded engine): wall-clock
// reads, the process-global math/rand source, and randomly self-seeded
// maphash values. All randomness on scoring paths must flow through an
// explicitly seeded *rand.Rand (or a pinned maphash.Seed), so that a
// seed pins the whole trace.
//
// The two sanctioned exceptions carry directives: the process-wide hash
// seed (one maphash.MakeSeed at init, in incremental: shard routing and
// scratch-index probing) and any observability timestamps outside
// scoring paths.
var DetSource = &Analyzer{
	Name: "detsource",
	Doc:  "flag wall-clock and process-global randomness in determinism-pinned packages",
	Run:  runDetSource,
}

// randConstructors are the math/rand functions that build explicitly
// seeded generators; everything else at package level draws from the
// process-global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDetSource(pass *Pass) error {
	if pass.Pkg == nil || !pathInAny(pass.Pkg.Path(), detSourcePinned) {
		return nil
	}
	// detrange owns the shared verb's reason check inside the pinned
	// set; detsource covers the packages only it scopes (the engine),
	// so a bare directive reports exactly once.
	if !pathInAny(pass.Pkg.Path(), detPinned) {
		pass.CheckDirectiveReasons(ndVerb)
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDetCall(pass, n)
			case *ast.Ident:
				checkMaphashType(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkDetCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.Info.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	// Package-level functions only: methods on an explicitly seeded
	// *rand.Rand are exactly the sanctioned pattern.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return
	}
	var msg string
	switch pkg, name := fn.Pkg().Path(), fn.Name(); {
	case pkg == "time" && name == "Now":
		msg = "time.Now in a determinism-pinned package: wall-clock values must not reach scoring paths"
	case (pkg == "math/rand" || pkg == "math/rand/v2") && !randConstructors[name]:
		msg = "math/rand." + name + " draws from the process-global source: thread an explicitly seeded *rand.Rand instead"
	case pkg == "hash/maphash" && name == "MakeSeed":
		msg = "maphash.MakeSeed draws a random per-process seed: route hashing through one pinned, shared Seed"
	default:
		return
	}
	if pass.Suppressed(ndVerb, call.Pos()) {
		return
	}
	pass.Reportf(call.Pos(), "%s (//wpinq:%s <reason> to sanction)", msg, ndVerb)
}

// checkMaphashType flags uses of the maphash.Hash type: a zero Hash
// self-seeds randomly on first write, so each value hashes differently
// per process.
func checkMaphashType(pass *Pass, id *ast.Ident) {
	tn, ok := pass.Info.Uses[id].(*types.TypeName)
	if !ok || tn.Pkg() == nil {
		return
	}
	if tn.Pkg().Path() != "hash/maphash" || tn.Name() != "Hash" {
		return
	}
	if pass.Suppressed(ndVerb, id.Pos()) {
		return
	}
	pass.Reportf(id.Pos(),
		"maphash.Hash self-seeds randomly per value: use maphash.Comparable with a pinned Seed (//wpinq:%s <reason> to sanction)", ndVerb)
}
