// Package hotalloc is the compile-time counterpart of the alloc_test.go
// gates: every function annotated //gridroute:hotpath (which must be every
// function covered by a 0-alloc gate) is statically checked for allocation
// sources — heap-escaping composite literals, fmt calls, interface boxing,
// closure captures, and appends to freshly-made slices.
//
// The analyzer understands the repo's amortized-growth idiom: a make or
// append whose result is stored into a receiver field (dp.cost =
// make(...)) grows a reusable buffer once and is allowed; the gates measure
// the warm steady state, and so does hotalloc. Sites that allocate by
// documented design (say, a cold fallback branch inside a hot-path
// function) are exempted with //gridlint:allow <reason>.
package hotalloc

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"gridroute/internal/analysis/annotation"
)

var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "flag allocation sources inside //gridroute:hotpath functions",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	allows := annotation.CollectAllows(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		if annotation.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if !annotation.FuncDirective(fn, annotation.Hotpath) || annotation.FuncAllowed(fn) {
				continue
			}
			checkFunc(pass, fn, allows)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, allows *annotation.Allows) {
	info := pass.TypesInfo

	// The amortized-growth idiom: make/append results stored into a field
	// (or element) of a longer-lived value are one-time buffer growth, not
	// per-call allocation.
	fieldStored := make(map[ast.Expr]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			switch ast.Unparen(as.Lhs[i]).(type) {
			case *ast.SelectorExpr, *ast.IndexExpr:
				fieldStored[ast.Unparen(rhs)] = true
			}
		}
		return true
	})

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if !allows.Allowed(n.Pos()) {
				pass.Reportf(n.Pos(), "closure on hot path: a func literal (and its captures) escapes to the heap")
			}
			return false // one diagnostic per closure is enough
		case *ast.UnaryExpr:
			if lit, ok := n.X.(*ast.CompositeLit); ok && !allows.Allowed(n.Pos()) {
				pass.Reportf(n.Pos(), "heap-escaping composite literal &%s{...} on hot path", types.ExprString(lit.Type))
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok && !allows.Allowed(n.Pos()) {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					pass.Reportf(n.Pos(), "map literal allocates on hot path")
				case *types.Slice:
					pass.Reportf(n.Pos(), "slice literal allocates a backing array on hot path")
				}
			}
		case *ast.CallExpr:
			if isPanicCall(info, n) {
				return false // panic is the cold, failing path; its arguments may format freely
			}
			switch calleeName(info, n) {
			case "fmt":
				if !allows.Allowed(n.Pos()) {
					pass.Reportf(n.Pos(), "fmt call on hot path allocates (and boxes its operands)")
				}
				return false
			case "make":
				if !fieldStored[ast.Expr(n)] && !allows.Allowed(n.Pos()) {
					pass.Reportf(n.Pos(), "make on hot path allocates per call; grow a reusable field-backed buffer instead")
				}
			case "new":
				if !allows.Allowed(n.Pos()) {
					pass.Reportf(n.Pos(), "new(...) on hot path allocates per call")
				}
			case "append":
				if len(n.Args) > 0 && freshSlice(n.Args[0]) && !allows.Allowed(n.Pos()) {
					pass.Reportf(n.Pos(), "append to a fresh slice allocates per call; append into a reused buffer")
				}
			}
			checkBoxing(pass, n, allows)
		}
		return true
	}
	ast.Inspect(fn.Body, walk)
}

// checkBoxing flags concrete non-pointer values passed to interface-typed
// parameters: storing such a value in an interface copies it to the heap.
// Pointers (and nil, and values already of interface type) are stored
// directly in the interface word and are exempt.
func checkBoxing(pass *analysis.Pass, call *ast.CallExpr, allows *annotation.Allows) {
	info := pass.TypesInfo
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Explicit conversion T(x): flag only conversions into interfaces.
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && boxes(info, call.Args[0]) && !allows.Allowed(call.Pos()) {
			pass.Reportf(call.Pos(), "conversion to interface boxes a concrete value on hot path")
		}
		return
	}
	sig, ok := info.Types[call.Fun].Type.(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			pt = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		case i < sig.Params().Len():
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt) && boxes(info, arg) && !allows.Allowed(arg.Pos()) {
			pass.Reportf(arg.Pos(), "interface boxing on hot path: concrete value passed as %s", pt.String())
		}
	}
}

// boxes reports whether storing arg in an interface allocates: true for
// concrete non-pointer, non-interface values that are not untyped nil.
func boxes(info *types.Info, arg ast.Expr) bool {
	tv, ok := info.Types[arg]
	if !ok || tv.IsNil() || tv.Value != nil {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Chan, *types.Signature:
		return false // single-word values live in the interface data word
	}
	return true
}

// freshSlice reports whether e is a slice born in this expression — a
// literal, a make call, or nil — so appending to it must allocate.
func freshSlice(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.Ident:
		return e.Name == "nil"
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" {
			return true
		}
	}
	return false
}

// calleeName names the callee coarsely: "make"/"new"/"append" for those
// builtins, the package name for cross-package calls (so "fmt" for any fmt
// function), and "" otherwise.
func calleeName(info *types.Info, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok {
			return b.Name()
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Type().(*types.Signature).Recv() == nil {
			return fn.Pkg().Name()
		}
	}
	return ""
}

func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}
