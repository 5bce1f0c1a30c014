// Package analysis is codvet's project-invariant analyzer suite: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// driver shape (Analyzer / Pass / Diagnostic) over the standard library's
// go/ast and go/types, plus the five analyzers that machine-check the
// conventions this repository used to enforce only in review:
//
//   - determinism: no wall clock or global math/rand inside the
//     declared-deterministic packages (scenario, scenario/gen, dynamics,
//     trace, collision, mathx) — campaign keys must stay a pure function
//     of the seed.
//   - policydecl: every subscription call site declares its delivery
//     policy explicitly (LatestValue / Reliable / DropOldest), so
//     saturation contracts never regress to implicit defaults.
//   - layering: the SDK boundary PR 1 established, as an import table —
//     cmd/ and examples/ ride the public cod SDK, never internal/cb,
//     internal/wire or internal/transport; internal/dist stays headless.
//   - ctxwait: no duration waits (Subscription.Next) where the
//     context-aware NextContext fits, outside allowlisted fixed-cadence
//     loops.
//   - errwrap: fmt.Errorf must wrap error operands with %w, and sentinel
//     errors are matched with errors.Is, never ==.
//
// The suite deliberately analyzes production files only (no _test.go):
// the invariants guard what ships, and tests legitimately measure wall
// time or drive timed receives directly.
//
// Findings are suppressed through an explicit allowlist (see Allow and
// DefaultAllowlist in config.go) keyed on analyzer, package and a
// per-analyzer detail string, so every exception is written down with a
// reason instead of silently tolerated. The consolidated AUDIT.md at the
// repository root records the findings of the initial tree-wide run and
// how each was resolved.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one invariant checker. Run inspects a single type-checked
// package via its Pass and reports findings with Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allowlist entries.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass) error
}

// Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer names the analyzer that raised it.
	Analyzer string
	// Message states the violated invariant and the fix.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Pass carries one package through one analyzer.
type Pass struct {
	// Analyzer is the checker this pass runs.
	Analyzer *Analyzer
	// Fset resolves token positions for every file of the load.
	Fset *token.FileSet
	// Path is the package's import path (fixture packages under an
	// overlay keep their declared fixture path).
	Path string
	// Files are the package's parsed production files.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's resolution maps for Files.
	Info *types.Info

	allow  []AllowEntry
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Allowed reports whether the allowlist suppresses a finding of this
// analyzer, in this package, with the given detail string. The detail's
// meaning is per-analyzer: the forbidden import path for layering, the
// enclosing function name for the others. A "*" detail in an entry
// matches any detail.
func (p *Pass) Allowed(detail string) bool {
	for _, e := range p.allow {
		if e.Analyzer != p.Analyzer.Name || e.Pkg != p.Path {
			continue
		}
		if e.Detail == "*" || e.Detail == detail {
			return true
		}
	}
	return false
}

// EnclosingFunc returns the name of the function declaration containing
// pos ("pkgname.Func" method receivers elided), or "<package>" for
// file-scope positions. It is the detail key most analyzers feed the
// allowlist.
func (p *Pass) EnclosingFunc(pos token.Pos) string {
	for _, f := range p.Files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || pos < fd.Pos() || pos > fd.End() {
				continue
			}
			return fd.Name.Name
		}
	}
	return "<package>"
}

// pkgNameOf resolves sel's qualifier to an imported package, or nil when
// sel.X is not a package name (a value selector, a field access, ...).
func (p *Pass) pkgNameOf(sel *ast.SelectorExpr) *types.PkgName {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := p.Info.Uses[id].(*types.PkgName)
	return pn
}

// funcOf resolves a call expression's callee to the *types.Func it
// invokes, unwrapping generic instantiations (Subscribe[T]) and
// parenthesized forms. It returns nil for calls through function values
// and for type conversions.
func (p *Pass) funcOf(call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(f.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(f.X)
	}
	switch f := fun.(type) {
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[f.Sel].(*types.Func)
		return fn
	case *ast.Ident:
		fn, _ := p.Info.Uses[f].(*types.Func)
		return fn
	}
	return nil
}

// errorType is the universe error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t's static type satisfies the error
// interface.
func implementsError(t types.Type) bool {
	return t != nil && types.Implements(t, errorType)
}
