// Package annotation parses the gridroute contract directives and the
// gridlint suppression comments shared by every analyzer in the suite.
//
// Directive grammar (all are ordinary comments, one per line):
//
//	//gridroute:deterministic          on a func: root of the detflow closure
//	//gridroute:hotpath                on a func: checked by hotalloc
//	//gridroute:versioned              on a struct field: writes need a version bump
//	//gridroute:seqclock               package marker: no wall clock anywhere
//	//gridlint:allow <reason>          suppress diagnostics on this line (or, for
//	                                   a standalone comment, on the next line)
//
// Like cmd/vet directives, these are machine-read comments: no space after
// the leading slashes, and the reason on an allow line is mandatory by
// convention (it is what reviewers audit).
package annotation

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive names (without the //gridroute: prefix).
const (
	Deterministic = "deterministic"
	Hotpath       = "hotpath"
	Versioned     = "versioned"
	SeqClock      = "seqclock"
)

const (
	routePrefix = "//gridroute:"
	allowPrefix = "//gridlint:allow"
)

// Directive reports whether the comment group carries //gridroute:<name>
// (any text after a space is commentary).
func Directive(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		rest, found := strings.CutPrefix(c.Text, routePrefix)
		if !found {
			continue
		}
		if head, _, _ := strings.Cut(rest, " "); head == name {
			return true
		}
	}
	return false
}

// FuncDirective reports whether fn's doc comment carries the directive.
func FuncDirective(fn *ast.FuncDecl, name string) bool {
	return Directive(fn.Doc, name)
}

// FileDirective reports whether any comment group in the file carries the
// directive; used for package-scoped markers like //gridroute:seqclock.
func FileDirective(f *ast.File, name string) bool {
	for _, cg := range f.Comments {
		if Directive(cg, name) {
			return true
		}
	}
	return false
}

// Allows is the set of source lines (per file base) on which diagnostics are
// suppressed by a //gridlint:allow comment.
type Allows struct {
	fset  *token.FileSet
	lines map[string]map[int]bool // filename -> line set
}

// CollectAllows scans the files for //gridlint:allow comments. A trailing
// comment suppresses its own line; every allow comment also suppresses the
// line below it, so a standalone comment line guards the statement under it.
func CollectAllows(fset *token.FileSet, files []*ast.File) *Allows {
	a := &Allows{fset: fset, lines: make(map[string]map[int]bool)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				set := a.lines[pos.Filename]
				if set == nil {
					set = make(map[int]bool)
					a.lines[pos.Filename] = set
				}
				set[pos.Line] = true
				set[pos.Line+1] = true
			}
		}
	}
	return a
}

// Allowed reports whether a diagnostic at pos is suppressed.
func (a *Allows) Allowed(pos token.Pos) bool {
	p := a.fset.Position(pos)
	return a.lines[p.Filename][p.Line]
}

// FuncAllowed reports whether the whole function is suppressed by a
// //gridlint:allow line in its doc comment.
func FuncAllowed(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(c.Text, allowPrefix) {
			return true
		}
	}
	return false
}

// IsTestFile reports whether the file containing pos is a _test.go file.
// The contract analyzers check production code only; test files exercise
// contracts deliberately (fault schedules, chaos timing) and are covered by
// the dynamic gates instead.
func IsTestFile(fset *token.FileSet, f *ast.File) bool {
	name := fset.Position(f.Pos()).Filename
	return strings.HasSuffix(name, "_test.go")
}
