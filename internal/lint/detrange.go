package lint

import (
	"go/ast"
	"go/types"
)

// DetRange flags `for range` over map values inside the
// determinism-pinned packages. Go randomizes map iteration order per
// run, so any observation of it — emission order, floating-point
// accumulation order, noise assignment order — breaks the repo's
// bit-reproducible seeded traces (DESIGN.md "Deterministic emission").
// A call of the incremental state table's each method is flagged the
// same way: the table's slot order follows a per-process hash seed.
//
// Two escapes exist: a loop that only collects keys/values into slices
// handed to sort.*/slices.* later in the same function is allowed (the
// sort re-establishes a canonical order before anything observes it),
// and a //wpinq:nondeterministic-ok <reason> directive suppresses a
// loop whose effect is provably order-independent (map-to-map copies,
// integer sums).
var DetRange = &Analyzer{
	Name: "detrange",
	Doc:  "flag map iteration in determinism-pinned packages unless sorted before observation",
	Run:  runDetRange,
}

const ndVerb = "nondeterministic-ok"

func runDetRange(pass *Pass) error {
	if pass.Pkg == nil || !pathInAny(pass.Pkg.Path(), detPinned) {
		return nil
	}
	pass.CheckDirectiveReasons(ndVerb)
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := funcBody(n)
			if !ok {
				return true
			}
			checkRangesIn(pass, fn)
			return true
		})
	}
	return nil
}

// funcBody returns the body of a function declaration or literal.
func funcBody(n ast.Node) (*ast.BlockStmt, bool) {
	switch fn := n.(type) {
	case *ast.FuncDecl:
		return fn.Body, fn.Body != nil
	case *ast.FuncLit:
		return fn.Body, fn.Body != nil
	}
	return nil, false
}

func checkRangesIn(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isFn := n.(*ast.FuncLit); isFn && n.Pos() != body.Pos() {
			// Nested function literals get their own checkRangesIn
			// visit (with their own body as the sort scope).
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isTableEach(pass, call) && !pass.Suppressed(ndVerb, call.Pos()) {
			pass.Reportf(call.Pos(),
				"state table each: iteration order follows the hash seed in a determinism-pinned package; keep results off it, or annotate //wpinq:%s <reason>",
				ndVerb)
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.Info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if pass.Suppressed(ndVerb, rs.Pos()) {
			return true
		}
		if feedsSort(pass, rs, body) {
			return true
		}
		pass.Reportf(rs.Pos(),
			"range over map %s: iteration order is nondeterministic in a determinism-pinned package; collect and sort before observation, or annotate //wpinq:%s <reason>",
			types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)), ndVerb)
		return true
	})
}

// isTableEach reports whether call is x.each(...) for a method each of
// a named type called table: the incremental state table's iteration.
func isTableEach(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "each" {
		return false
	}
	fn, ok := pass.Info.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := types.Unalias(recv.Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "table"
}

// feedsSort reports whether rs only accumulates into slices that a
// later sort.* / slices.* call in the same function canonicalizes:
// the collect-then-sort idiom that makes map iteration safe.
func feedsSort(pass *Pass, rs *ast.RangeStmt, scope *ast.BlockStmt) bool {
	// Slice variables appended to inside the loop body.
	appended := map[types.Object]bool{}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		usesAppend := false
		for _, rhs := range as.Rhs {
			if call, ok := rhs.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
					usesAppend = true
				}
			}
		}
		if !usesAppend {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := pass.Info.ObjectOf(id); obj != nil {
					appended[obj] = true
				}
			}
		}
		return true
	})
	if len(appended) == 0 {
		return false
	}
	// A sort call after the loop whose arguments mention one of the
	// collected slices.
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.Info.ObjectOf(sel.Sel)
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && appended[pass.Info.ObjectOf(id)] {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
