package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// PackedBounds guards the packed-key encoding invariants (DESIGN.md
// "Packed interior keys"): PEdge/PPath/PDeg-family words hold 21-bit
// node codes, and a code is valid only if it came from packNode /
// packDeg (which panic on values outside [0, 2^21)) or from another
// packed value's accessor. Constructing a packed word from an arbitrary
// integer silently aliases distinct records — a soundness bug the
// weighted joins cannot detect.
//
// The analyzer checks, in any package that defines packed types (named
// uint64 whose name matches P[A-Z]...):
//
//   - conversions to a packed type are built only from sanctioned
//     leaves: packNode/packDeg calls, packed values (and their uint64
//     conversions), accessor calls on packed receivers, constants below
//     2^21, and shift/or/and/xor compositions of those;
//   - calls to kernel constructors (functions carrying a
//     //wpinq:packed-kernel <reason> doc directive, whose own
//     conversions are exempt) pass only sanctioned values in their
//     uint64 parameters;
//   - inside packed-context functions, constant shift distances are
//     multiples of 21 and constant AND-masks are of the form 2^(21k)-1,
//     so a mislayouted field extraction cannot land.
//
// A single deliberate exception carries //wpinq:packed-ok <reason> on
// the offending line.
var PackedBounds = &Analyzer{
	Name: "packedbounds",
	Doc:  "require packed interior keys built from range-checked codes with 21-bit-consistent shifts and masks",
	Run:  runPackedBounds,
}

const (
	packedVerb = "packed-ok"
	kernelVerb = "packed-kernel"

	// packedNodeBits mirrors queries.nodeBits: node codes are 21 bits.
	packedNodeBits = 21
)

// packedMasks are the field-extraction masks consistent with the
// 21-bit layout: the low one, two, or three node fields.
var packedMasks = map[uint64]bool{
	1<<packedNodeBits - 1:     true,
	1<<(2*packedNodeBits) - 1: true,
	1<<(3*packedNodeBits) - 1: true,
}

func runPackedBounds(pass *Pass) error {
	if pass.Pkg == nil {
		return nil
	}
	packed := packedTypeSet(pass)
	if len(packed) == 0 {
		return nil
	}
	pass.CheckDirectiveReasons(packedVerb, kernelVerb)

	// Kernel constructors: declarations carrying the packed-kernel doc
	// directive. Their bodies may assemble words from raw parameters;
	// in exchange every call site has its arguments validated.
	kernels := map[types.Object]bool{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				if _, ok := pass.FuncDirective(fn, kernelVerb); ok {
					kernels[pass.Info.Defs[fn.Name]] = true
				}
			}
		}
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkPackedFunc(pass, fn, packed, kernels)
		}
	}
	return nil
}

// packedTypeSet collects the package-scope packed key types: named
// types over uint64 whose name matches P[A-Z]...
func packedTypeSet(pass *Pass) map[*types.TypeName]bool {
	set := map[*types.TypeName]bool{}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || len(name) < 2 || name[0] != 'P' || name[1] < 'A' || name[1] > 'Z' {
			continue
		}
		if b, ok := tn.Type().Underlying().(*types.Basic); ok && b.Kind() == types.Uint64 {
			set[tn] = true
		}
	}
	return set
}

// isPackedType reports whether t is (a pointer to) one of the packed
// named types.
func isPackedType(t types.Type, packed map[*types.TypeName]bool) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && packed[named.Obj()]
}

func checkPackedFunc(pass *Pass, fn *ast.FuncDecl, packed map[*types.TypeName]bool, kernels map[types.Object]bool) {
	def := pass.Info.Defs[fn.Name]
	isKernel := kernels[def]
	inPackedContext := isKernel || signatureMentionsPacked(def, packed)

	allowed := allowedLocals(pass, fn.Body, packed, kernels)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if tv, ok := pass.Info.Types[n.Fun]; ok && tv.IsType() && isPackedType(tv.Type, packed) {
				// Conversion to a packed type.
				if isKernel || len(n.Args) != 1 {
					return true
				}
				if !allowedPackedExpr(pass, n.Args[0], packed, kernels, allowed) && !pass.Suppressed(packedVerb, n.Pos()) {
					pass.Reportf(n.Pos(),
						"packed key built from a value not provably below 2^21: route node ids through packNode/packDeg, or annotate //wpinq:%s <reason>",
						packedVerb)
				}
				return true
			}
			checkKernelCall(pass, n, packed, kernels, allowed)
		case *ast.BinaryExpr:
			if inPackedContext {
				checkPackedLayout(pass, n)
			}
		}
		return true
	})
}

// checkKernelCall validates the uint64 arguments of a kernel
// constructor call: the kernel's body is exempt, so its inputs carry
// the proof obligation.
func checkKernelCall(pass *Pass, call *ast.CallExpr, packed map[*types.TypeName]bool, kernels map[types.Object]bool, allowed map[types.Object]bool) {
	var callee types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		callee = pass.Info.ObjectOf(fun)
	case *ast.SelectorExpr:
		callee = pass.Info.ObjectOf(fun.Sel)
	}
	if callee == nil || !kernels[callee] {
		return
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		if i >= sig.Params().Len() {
			break
		}
		pt, ok := sig.Params().At(i).Type().(*types.Basic)
		if !ok || pt.Kind() != types.Uint64 {
			continue // non-word parameters (e.g. int degrees) are packed inside
		}
		if !allowedPackedExpr(pass, arg, packed, kernels, allowed) && !pass.Suppressed(packedVerb, arg.Pos()) {
			pass.Reportf(arg.Pos(),
				"packed-kernel argument not provably below 2^21: pass a packNode/packDeg result or a packed accessor value, or annotate //wpinq:%s <reason>",
				packedVerb)
		}
	}
}

// checkPackedLayout flags shift distances and AND-masks inconsistent
// with the 21-bit field layout inside packed-context functions.
func checkPackedLayout(pass *Pass, be *ast.BinaryExpr) {
	switch be.Op {
	case token.SHL, token.SHR:
		v, ok := constUint(pass, be.Y)
		if !ok {
			return
		}
		if v%packedNodeBits != 0 {
			if !pass.Suppressed(packedVerb, be.Pos()) {
				pass.Reportf(be.Y.Pos(),
					"shift by %d in a packed-key context is not a multiple of the %d-bit node width (//wpinq:%s <reason> to sanction)",
					v, packedNodeBits, packedVerb)
			}
		}
	case token.AND:
		for _, operand := range []ast.Expr{be.X, be.Y} {
			v, ok := constUint(pass, operand)
			if !ok || packedMasks[v] {
				continue
			}
			if !pass.Suppressed(packedVerb, be.Pos()) {
				pass.Reportf(operand.Pos(),
					"mask %#x in a packed-key context does not select whole %d-bit node fields (//wpinq:%s <reason> to sanction)",
					v, packedNodeBits, packedVerb)
			}
		}
	}
}

// constUint evaluates e as a non-negative integer constant.
func constUint(pass *Pass, e ast.Expr) (uint64, bool) {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v := constant.ToInt(tv.Value)
	if v.Kind() != constant.Int {
		return 0, false
	}
	u, exact := constant.Uint64Val(v)
	return u, exact
}

// signatureMentionsPacked reports whether def's receiver, parameters,
// or results involve a packed type: the functions whose shift/mask
// arithmetic manipulates packed words.
func signatureMentionsPacked(def types.Object, packed map[*types.TypeName]bool) bool {
	fn, ok := def.(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil && isPackedType(recv.Type(), packed) {
		return true
	}
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := 0; i < tup.Len(); i++ {
			if isPackedType(tup.At(i).Type(), packed) {
				return true
			}
		}
	}
	return false
}

// allowedLocals computes, to a fixpoint, the set of local variables
// bound (1:1) to sanctioned packed-word expressions, so `s :=
// e.srcKey(); packedDeg(s, d)` validates the same as the inline form.
func allowedLocals(pass *Pass, body *ast.BlockStmt, packed map[*types.TypeName]bool, kernels map[types.Object]bool) map[types.Object]bool {
	allowed := map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.ObjectOf(id)
				if obj == nil || allowed[obj] {
					continue
				}
				if allowedPackedExpr(pass, as.Rhs[i], packed, kernels, allowed) {
					allowed[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return allowed
}

// allowedPackedExpr reports whether e is provably a sanctioned packed
// word: its value is below 2^21 or was produced by a range-checked path
// (packNode/packDeg, a packed value, or a packed accessor).
func allowedPackedExpr(pass *Pass, e ast.Expr, packed map[*types.TypeName]bool, kernels map[types.Object]bool, allowed map[types.Object]bool) bool {
	// Constant: a 21-bit code, or a layout mask.
	if v, ok := constUint(pass, e); ok {
		return v < 1<<packedNodeBits || packedMasks[v]
	}
	// Any expression already of a packed type.
	if tv, ok := pass.Info.Types[e]; ok && tv.Type != nil && isPackedType(tv.Type, packed) {
		return true
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return allowedPackedExpr(pass, e.X, packed, kernels, allowed)
	case *ast.Ident:
		return allowed[pass.Info.ObjectOf(e)]
	case *ast.CallExpr:
		// uint64(x) over a sanctioned x.
		if tv, ok := pass.Info.Types[e.Fun]; ok && tv.IsType() {
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Kind() == types.Uint64 && len(e.Args) == 1 {
				return allowedPackedExpr(pass, e.Args[0], packed, kernels, allowed)
			}
			return false
		}
		switch fun := e.Fun.(type) {
		case *ast.Ident:
			// The range-checked entry points, and kernel results.
			if fun.Name == "packNode" || fun.Name == "packDeg" {
				return true
			}
			return kernels[pass.Info.ObjectOf(fun)]
		case *ast.SelectorExpr:
			obj := pass.Info.ObjectOf(fun.Sel)
			if kernels[obj] {
				return true
			}
			// Accessor method on a packed receiver (srcKey, bKey, ...).
			if fn, ok := obj.(*types.Func); ok {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					return isPackedType(sig.Recv().Type(), packed)
				}
			}
		}
		return false
	case *ast.BinaryExpr:
		switch e.Op {
		case token.SHL, token.SHR:
			_, constShift := constUint(pass, e.Y)
			return constShift && allowedPackedExpr(pass, e.X, packed, kernels, allowed)
		case token.OR, token.AND, token.XOR, token.ADD:
			return allowedPackedExpr(pass, e.X, packed, kernels, allowed) &&
				allowedPackedExpr(pass, e.Y, packed, kernels, allowed)
		}
	}
	return false
}
