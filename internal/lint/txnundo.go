package lint

import (
	"go/ast"
	"go/types"
)

// TxnUndo guards the transactional undo-logging invariant (DESIGN.md
// "Transactional scoring"): any struct that carries an undo log
// participates in abort replay, so every method that writes one of its
// replayed fields must also maintain the log (reference the log field
// or the logging flag on the transaction-open path). A method that
// mutates replayed state without touching the log would leave aborts
// restoring stale pre-images — exactly the class of bug the golden
// trace tests catch only after the fact.
//
// A struct carries an undo log in one of two shapes: a field named
// "undo" (a private log, as NoisyCountSink and CollectorUndo keep), or a
// field whose type is the node-level log — a named type called undoLog,
// held by value (the operator nodes that own one) or by pointer
// (stateMap, which logs through its node's).
//
// Methods whose writes are provably outside transaction scope carry a
// //wpinq:txn-exempt <reason> directive on their declaration.
var TxnUndo = &Analyzer{
	Name: "txnundo",
	Doc:  "require undo-log maintenance in methods writing undo-replayed state",
	Run:  runTxnUndo,
}

const txnVerb = "txn-exempt"

// txnBookkeeping lists the fields that are the transaction machinery
// itself (or are deliberately kept across aborts); writes to them never
// need a log entry.
var txnBookkeeping = map[string]bool{
	"undo": true, "logging": true, "touched": true,
	"seen": true, "savedL1": true, "savedOrder": true,
}

func runTxnUndo(pass *Pass) error {
	if pass.Pkg == nil {
		return nil
	}
	pass.CheckDirectiveReasons(txnVerb)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil {
				continue
			}
			checkTxnMethod(pass, fn)
		}
	}
	return nil
}

// undoLogged reports whether t (a method receiver's base type) is a
// struct carrying an undo log.
func undoLogged(t types.Type) bool {
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isLogField(st.Field(i)) {
			return true
		}
	}
	return false
}

// isLogField reports whether a struct field is the undo log itself: the
// "undo" slice (or its "logging" flag) of a private log, or a node-level
// undoLog held by value or by pointer.
func isLogField(f *types.Var) bool {
	if f.Name() == "undo" || f.Name() == "logging" {
		return true
	}
	t := types.Unalias(f.Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "undoLog"
}

func checkTxnMethod(pass *Pass, fn *ast.FuncDecl) {
	if len(fn.Recv.List) != 1 || len(fn.Recv.List[0].Names) != 1 {
		return // unnamed receiver: no field writes possible
	}
	recvIdent := fn.Recv.List[0].Names[0]
	recv := pass.Info.Defs[recvIdent]
	if recv == nil {
		return
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if !undoLogged(t) {
		return
	}

	type write struct {
		pos   ast.Node
		field *types.Var
	}
	var offending []write
	touchesLog := false
	// replayed reports whether a write to the named receiver field needs
	// a log entry: the transaction machinery itself does not.
	replayed := func(field *types.Var) bool {
		return !txnBookkeeping[field.Name()] && !isLogField(field)
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if f := recvField(pass, n, recv); f != nil && isLogField(f) {
				touchesLog = true
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if field, ok := writtenRecvField(pass, lhs, recv); ok && replayed(field) {
					offending = append(offending, write{lhs, field})
				}
			}
		case *ast.IncDecStmt:
			if field, ok := writtenRecvField(pass, n.X, recv); ok && replayed(field) {
				offending = append(offending, write{n.X, field})
			}
		case *ast.CallExpr:
			// delete(recv.f, k) and clear(recv.f) mutate the field's
			// map just as an indexed assignment would.
			if id, ok := n.Fun.(*ast.Ident); ok && (id.Name == "delete" || id.Name == "clear") && len(n.Args) >= 1 {
				if field, ok := writtenRecvField(pass, n.Args[0], recv); ok && replayed(field) {
					offending = append(offending, write{n.Args[0], field})
				}
			}
		}
		return true
	})
	if len(offending) == 0 || touchesLog {
		return
	}
	if _, ok := pass.FuncDirective(fn, txnVerb); ok {
		return
	}
	first := offending[0]
	pass.Reportf(first.pos.Pos(),
		"method %s writes undo-replayed field %q without consulting the undo log: log a pre-image on the txn-open path or annotate the declaration //wpinq:%s <reason>",
		fn.Name.Name, first.field.Name(), txnVerb)
}

// writtenRecvField resolves an assignment target to a field of the
// receiver: recv.f, recv.f[i], recv.f[i].g, *recv.f, ... all count as
// writes to f.
func writtenRecvField(pass *Pass, lhs ast.Expr, recv types.Object) (*types.Var, bool) {
	for {
		switch e := lhs.(type) {
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			if f := recvField(pass, e, recv); f != nil {
				return f, true
			}
			lhs = e.X
		default:
			return nil, false
		}
	}
}

// recvField returns the field sel selects when sel is recv.<field> for
// the given receiver object, nil otherwise.
func recvField(pass *Pass, sel *ast.SelectorExpr, recv types.Object) *types.Var {
	id, ok := sel.X.(*ast.Ident)
	if !ok || pass.Info.ObjectOf(id) != recv {
		return nil
	}
	f, _ := pass.Info.ObjectOf(sel.Sel).(*types.Var)
	if f == nil || !f.IsField() {
		return nil
	}
	return f
}
