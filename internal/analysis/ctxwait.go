package analysis

import (
	"go/ast"
	"go/types"
)

// durationWait identifies one duration-parameter wait method and its
// context-aware replacement.
type durationWait struct {
	pkg, recv, name, ctxVariant string
}

// durationWaits are the duration-parameter wait forms that have a
// context-aware sibling. Subscription.Next is the allocation-free timed
// receive (buffered data skips the clock, the timeout rides a pooled
// timer) for fixed-cadence loops that allowlist it; other code takes a
// context, because a duration wait cannot be canceled early, composes
// poorly with deadlines, and hides the caller's lifetime. The defining
// package is exempt.
var durationWaits = []durationWait{
	{"codsim/internal/cb", "Subscription", "Next", "NextContext"},
}

// CtxWait flags duration waits where a context-aware variant exists,
// outside the defining package and the allowlisted fixed-cadence
// consumers (displaysync's swap-lock loop keeps the zero-alloc timed
// receive deliberately).
var CtxWait = &Analyzer{
	Name: "ctxwait",
	Doc:  "use NextContext instead of the duration form Subscription.Next outside allowlisted fixed-cadence loops",
	Run:  runCtxWait,
}

func runCtxWait(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := pass.funcOf(call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() == pass.Path {
				return true
			}
			var hit *durationWait
			recv := recvTypeName(fn)
			for i, s := range durationWaits {
				if s.pkg == fn.Pkg().Path() && s.recv == recv && s.name == fn.Name() {
					hit = &durationWaits[i]
					break
				}
			}
			if hit == nil || pass.Allowed(pass.EnclosingFunc(call.Pos())) {
				return true
			}
			pass.Reportf(call.Pos(),
				"duration wait %s.%s: use %s (context-aware waits compose with cancellation and deadlines)",
				recv, fn.Name(), hit.ctxVariant)
			return true
		})
	}
	return nil
}

// recvTypeName returns the bare name of fn's receiver named type, or ""
// for package-level functions.
func recvTypeName(fn *types.Func) string {
	recv := fn.Signature().Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
