// Package lockorder enforces the packer's version contract: in the package
// that declares them, every element write to a //gridroute:versioned field
// (the IPP weight state) must be preceded, in the same function, by a bump
// of the receiver's version counter (<x>.version++). The sketch session's
// warm-start skip trusts an unchanged ipp.Version to mean unchanged weights,
// so a weight write that skips the bump would silently serve a route solved
// against stale weights.
//
// The analyzer keeps its historical name from when it also checked the
// locking between the committer and a concurrent admission pipeline; the
// engine now decides on one serial loop, so only the version layer remains.
//
// A deliberate exception is exempted with //gridlint:allow; the reason is
// part of the reviewed source.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"gridroute/internal/analysis/annotation"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "writes to //gridroute:versioned fields need a preceding version bump (x.version++) in the same function",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	versioned := versionedFields(pass)
	if len(versioned) == 0 {
		return nil, nil
	}
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
			// Inspect visits statements in source order, so bumped is true
			// exactly when a bump precedes the current write.
			bumped := false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IncDecStmt:
					if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok && n.Tok == token.INC && sel.Sel.Name == "version" {
						bumped = true
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						fld := writtenVersionedField(pass, versioned, lhs)
						if fld != nil && !bumped && !allows.Allowed(lhs.Pos()) {
							pass.Reportf(lhs.Pos(), "write to versioned field %s without a preceding version bump (version++) in this function", fld.Name())
						}
					}
				}
				return true
			})
		}
	}
	return nil, nil
}

// versionedFields collects the struct fields this package annotates with
// //gridroute:versioned.
func versionedFields(pass *analysis.Pass) map[*types.Var]bool {
	versioned := make(map[*types.Var]bool)
	for _, f := range pass.Files {
		if annotation.IsTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				if !annotation.Directive(fld.Doc, annotation.Versioned) {
					continue
				}
				for _, name := range fld.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						versioned[v] = true
					}
				}
			}
			return true
		})
	}
	return versioned
}

// writtenVersionedField resolves lhs as an element write (p.xs[e] = ..., or
// map assign p.x[e] = ...) to a versioned field, returning the field.
// Whole-field assignment (p.xs = make(...)) is initialization and exempt.
func writtenVersionedField(pass *analysis.Pass, versioned map[*types.Var]bool, lhs ast.Expr) *types.Var {
	idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return nil
	}
	sel, ok := ast.Unparen(idx.X).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	v, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if ok && versioned[v] {
		return v
	}
	return nil
}
