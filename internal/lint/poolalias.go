package lint

import (
	"go/ast"
	"go/types"
)

// PoolAlias guards the pooled-buffer ownership rule (DESIGN.md "Memory
// model"): the slice returned by orderedDiff.takeBatch is the
// accumulator's own output array and is valid only until the next flush —
// handlers receive it synchronously and must not retain it. Any use
// that lets the slice header outlive the flush — storing it in a
// field, map, or slice element, sending it on a channel, returning it,
// appending it (unspread) into another slice, or handing it to a
// goroutine — is flagged. Reading elements, iterating, and passing the
// batch onward synchronously are all fine.
//
// A deliberate retention (e.g. a test fixture that immediately clones)
// carries //wpinq:alias-ok <reason> on the offending line.
var PoolAlias = &Analyzer{
	Name: "poolalias",
	Doc:  "flag retention of pooled takeBatch slices beyond the flush scope",
	Run:  runPoolAlias,
}

const aliasVerb = "alias-ok"

func runPoolAlias(pass *Pass) error {
	if pass.Pkg == nil {
		return nil
	}
	pass.CheckDirectiveReasons(aliasVerb)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			body, ok := funcBody(n)
			if !ok {
				return true
			}
			checkPoolAliases(pass, body)
			return true
		})
	}
	return nil
}

// isTakeBatch reports whether call invokes a method or function named
// takeBatch.
func isTakeBatch(pass *Pass, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name == "takeBatch"
	case *ast.Ident:
		return fun.Name == "takeBatch"
	}
	return false
}

func checkPoolAliases(pass *Pass, body *ast.BlockStmt) {
	// Pooled batch variables: locals bound to a takeBatch result,
	// plus one level of plain aliasing (y := x).
	pooled := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			fromPool := false
			if call, ok := rhs.(*ast.CallExpr); ok && isTakeBatch(pass, call) {
				fromPool = true
			}
			if id, ok := rhs.(*ast.Ident); ok && pooled[pass.Info.ObjectOf(id)] {
				fromPool = true
			}
			if !fromPool {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := pass.Info.ObjectOf(id); obj != nil {
					pooled[obj] = true
				}
			}
		}
		return true
	})

	// walk with a parent stack, classifying each pooled-slice use (and
	// each direct takeBatch() call) by its syntactic context.
	var stack []ast.Node
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if _, isFn := n.(*ast.FuncLit); isFn && len(stack) > 0 {
			// Nested literals are visited as their own scope.
			return false
		}
		bare := false
		if id, ok := n.(*ast.Ident); ok && pooled[pass.Info.ObjectOf(id)] {
			bare = true
		}
		if call, ok := n.(*ast.CallExpr); ok && isTakeBatch(pass, call) {
			bare = true
		}
		if bare {
			if how := escapeContext(pass, n, stack); how != "" && !pass.Suppressed(aliasVerb, n.Pos()) {
				pass.Reportf(n.Pos(),
					"pooled takeBatch slice %s: the batch aliases the accumulator and is invalid after the next push; copy it or annotate //wpinq:%s <reason>",
					how, aliasVerb)
			}
		}
		stack = append(stack, n)
		return true
	}
	ast.Inspect(body, visit)
}

// escapeContext classifies the use of a pooled slice at n given the
// ancestor stack; it returns a description of the escape, or "" when
// the use is safely scoped.
func escapeContext(pass *Pass, n ast.Node, stack []ast.Node) string {
	if len(stack) == 0 {
		return ""
	}
	parent := stack[len(stack)-1]
	switch p := parent.(type) {
	case *ast.CallExpr:
		if id, ok := p.Fun.(*ast.Ident); ok && id.Name == "append" {
			for i, arg := range p.Args {
				if arg == n && i > 0 && !p.Ellipsis.IsValid() {
					return "appended as an element of another slice"
				}
			}
		}
		// Synchronous call argument — unless the call itself is a
		// goroutine launch.
		if len(stack) >= 2 {
			if _, isGo := stack[len(stack)-2].(*ast.GoStmt); isGo {
				return "passed to a goroutine"
			}
		}
		return ""
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if rhs != n {
				continue
			}
			if i < len(p.Lhs) {
				switch lhs := p.Lhs[i].(type) {
				case *ast.Ident:
					return "" // tracked local alias
				case *ast.SelectorExpr:
					_ = lhs
					return "stored in a struct field"
				case *ast.IndexExpr:
					return "stored in a map or slice element"
				}
			}
			return "stored outside the flush scope"
		}
		return ""
	case *ast.ReturnStmt:
		return "returned from the function"
	case *ast.SendStmt:
		if p.Value == n {
			return "sent on a channel"
		}
		return ""
	case *ast.CompositeLit:
		return "stored in a composite literal"
	case *ast.KeyValueExpr:
		if p.Value == n {
			return "stored in a composite literal"
		}
		return ""
	}
	return ""
}
