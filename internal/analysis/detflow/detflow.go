// Package detflow enforces the determinism contract on the decision flow:
// every function reachable from a decision-log write — the decide path and
// WAL replay, both rooted by a //gridroute:deterministic annotation — must
// be free of wall-clock reads, unseeded math/rand draws, and map iteration
// (whose order would reach the log). The byte-identical decision logs that
// the race, chaos and sweep gates check dynamically are only possible if
// this holds statically.
//
// The closure is computed over static calls (typeutil.StaticCallee) within
// the package, and across packages through exported Nondet object facts:
// a function anywhere in the module that transitively reaches a
// nondeterministic primitive carries the fact, and any call to it from
// inside a deterministic closure is reported. Dynamic calls through
// interfaces or function values are not traced; the contract keeps decision
// flow on concrete receivers, which the engine's hot path already does for
// performance reasons.
//
// Metrics-only sites are exempted with //gridlint:allow <reason>; an
// allowed site neither reports nor poisons its enclosing function, so a
// latency stamp does not mark the whole admit path nondeterministic.
package detflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"

	"gridroute/internal/analysis/annotation"
	"gridroute/internal/analysis/nondetcall"
)

// Nondet marks a function that (transitively) executes a nondeterministic
// primitive. Exported so callers in other packages inherit the taint.
type Nondet struct {
	Reason string // e.g. "wall-clock call time.Now" or "calls pkg.F"
}

func (*Nondet) AFact()           {}
func (f *Nondet) String() string { return "nondet: " + f.Reason }

var Analyzer = &analysis.Analyzer{
	Name:      "detflow",
	Doc:       "forbid wall clock, unseeded rand and map iteration in the deterministic decision flow",
	Run:       run,
	FactTypes: []analysis.Fact{(*Nondet)(nil)},
}

// site is one nondeterministic primitive found directly in a function body.
type site struct {
	pos  token.Pos
	desc string
}

// funcInfo is the per-function summary the closure walk consumes.
type funcInfo struct {
	decl   *ast.FuncDecl
	obj    *types.Func
	root   bool // carries //gridroute:deterministic
	direct []site
	calls  []callEdge
}

type callEdge struct {
	pos    token.Pos
	callee *types.Func
}

func run(pass *analysis.Pass) (interface{}, error) {
	allows := annotation.CollectAllows(pass.Fset, pass.Files)

	infos := make(map[*types.Func]*funcInfo)
	var order []*funcInfo
	for _, f := range pass.Files {
		if annotation.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			info := &funcInfo{decl: fn, obj: obj}
			info.root = annotation.FuncDirective(fn, annotation.Deterministic)
			collectBody(pass, fn.Body, allows, info)
			infos[obj] = info
			order = append(order, info)
		}
	}

	// Transitive nondeterminism within the package: a fixed point over the
	// local call graph, seeded by direct sites and by imported facts on
	// out-of-package callees.
	reason := make(map[*types.Func]string)
	for _, info := range order {
		if len(info.direct) > 0 {
			reason[info.obj] = info.direct[0].desc
		}
	}
	for changed := true; changed; {
		changed = false
		for _, info := range order {
			if _, done := reason[info.obj]; done {
				continue
			}
			for _, e := range info.calls {
				if r, ok := calleeNondet(pass, infos, reason, e.callee); ok {
					reason[info.obj] = fmt.Sprintf("calls %s (%s)", e.callee.Name(), r)
					changed = true
					break
				}
			}
		}
	}
	for obj, r := range reason {
		pass.ExportObjectFact(obj, &Nondet{Reason: r})
	}

	// Deterministic closure: everything reachable from a root through local
	// static calls. Out-of-package callees are leaves checked via facts.
	inClosure := make(map[*types.Func]bool)
	var visit func(obj *types.Func)
	visit = func(obj *types.Func) {
		if inClosure[obj] {
			return
		}
		inClosure[obj] = true
		if info := infos[obj]; info != nil {
			for _, e := range info.calls {
				if infos[e.callee] != nil {
					visit(e.callee)
				}
			}
		}
	}
	for _, info := range order {
		if info.root {
			visit(info.obj)
		}
	}

	for _, info := range order {
		if !inClosure[info.obj] {
			continue
		}
		for _, s := range info.direct {
			pass.Reportf(s.pos, "%s in deterministic flow (function %s is reachable from a //gridroute:deterministic root)",
				s.desc, info.obj.Name())
		}
		for _, e := range info.calls {
			if infos[e.callee] != nil {
				continue // local callee: its own sites are reported above
			}
			var fact Nondet
			if pass.ImportObjectFact(e.callee, &fact) && !allows.Allowed(e.pos) {
				pass.Reportf(e.pos, "call to nondeterministic %s.%s in deterministic flow: %s",
					e.callee.Pkg().Name(), e.callee.Name(), fact.Reason)
			}
		}
	}
	return nil, nil
}

// calleeNondet reports whether a callee is (already known) nondeterministic,
// via the local fixed point for in-package functions or imported facts for
// everything else.
func calleeNondet(pass *analysis.Pass, infos map[*types.Func]*funcInfo, reason map[*types.Func]string, callee *types.Func) (string, bool) {
	if _, local := infos[callee]; local {
		r, ok := reason[callee]
		return r, ok
	}
	var fact Nondet
	if pass.ImportObjectFact(callee, &fact) {
		return fact.Reason, true
	}
	return "", false
}

// collectBody records the direct nondeterministic sites and the static call
// edges of one function body. Allowed sites are dropped entirely so they do
// not taint the enclosing function.
func collectBody(pass *analysis.Pass, body *ast.BlockStmt, allows *annotation.Allows, info *funcInfo) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if desc, bad := nondetcall.Classify(pass.TypesInfo, n); bad {
				if !allows.Allowed(n.Pos()) {
					info.direct = append(info.direct, site{n.Pos(), desc})
				}
				return true
			}
			if callee := typeutil.StaticCallee(pass.TypesInfo, n); callee != nil {
				info.calls = append(info.calls, callEdge{n.Pos(), callee})
			}
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap && !allows.Allowed(n.Pos()) {
					info.direct = append(info.direct, site{n.Pos(), "map iteration (nondeterministic order)"})
				}
			}
		}
		return true
	})
}
