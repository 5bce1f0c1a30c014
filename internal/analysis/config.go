package analysis

import "strings"

// AllowEntry suppresses one class of finding. Every entry is a written-
// down exception: the Reason is mandatory documentation, shown by
// `codvet -allowlist` and mirrored in AUDIT.md.
type AllowEntry struct {
	// Analyzer names the analyzer the entry applies to.
	Analyzer string
	// Pkg is the import path of the package the finding lands in.
	Pkg string
	// Detail narrows the entry: the forbidden import path for layering,
	// the enclosing function name for the other analyzers, or "*" for
	// any finding of the analyzer in the package.
	Detail string
	// Reason records why the exception is sound.
	Reason string
}

// DefaultAllowlist is the production allowlist codvet runs with. Keep it
// short: an entry is a debt note, not a dismissal.
var DefaultAllowlist = []AllowEntry{
	{
		Analyzer: "policydecl",
		Pkg:      "codsim/cmd/codnode",
		Detail:   "runSubscriber",
		Reason: "the delivery policy is chosen at runtime from the -policy flag " +
			"through an exhaustive switch over the three constructors; the " +
			"analyzer cannot prove a variable option is a policy",
	},
	{
		Analyzer: "ctxwait",
		Pkg:      "codsim/internal/displaysync",
		Detail:   "serve",
		Reason: "the swap-lock server polls FRAME READY at a fixed cadence " +
			"between stall-reaping passes; Next is the zero-alloc timed receive " +
			"and allocates no context per frame",
	},
	{
		Analyzer: "ctxwait",
		Pkg:      "codsim/internal/displaysync",
		Detail:   "WaitSwap",
		Reason: "WaitSwap's deadline loop re-arms the zero-alloc timed receive " +
			"with the remaining budget each FRAME SWAP; same reason as serve",
	},
}

// DeterministicPackages are the packages whose outputs must be a pure
// function of their seeds: campaign keys, scenario generation, scoring
// and physics replay all break silently if wall-clock time or the global
// math/rand source leaks in. Seeded *rand.Rand values and the simulation
// clock are the only sanctioned sources here.
var DeterministicPackages = []string{
	"codsim/internal/scenario",
	"codsim/internal/scenario/gen",
	"codsim/internal/dynamics",
	"codsim/internal/trace",
	"codsim/internal/collision",
	"codsim/internal/mathx",
}

// PoolPackages are the only packages permitted to declare a sync.Pool.
// They own the buffer lifecycle of the zero-alloc wire path and define
// its release points (the copy-at-boundary contract: cb clones anything
// it retains past a handler, wire.PutAttrSet resets before recycling).
// Elsewhere a pool has no such contract, so the nopool analyzer flags it.
var PoolPackages = []string{
	"codsim/internal/wire",
	"codsim/internal/cb",
}

// BoundaryRule forbids a set of imports within a scope of packages.
type BoundaryRule struct {
	// Scope matches packages: a trailing "/" makes it a prefix rule,
	// otherwise the package path must match exactly.
	Scope string
	// Forbidden are import paths (exact or subtree) the scope must not
	// reach.
	Forbidden []string
	// Reason explains the boundary.
	Reason string
}

// Boundaries is the layering table: the SDK boundary PR 1 established,
// now machine-checked. cmd/ and examples/ are SDK consumers — reaching
// into the backbone internals bypasses the typed codec, the delivery-
// policy surface and the compatibility contract. internal/dist runs on
// headless workers and must not pull display-side rendering in.
var Boundaries = []BoundaryRule{
	{
		Scope:     "codsim/cmd/",
		Forbidden: []string{"codsim/internal/cb", "codsim/internal/wire", "codsim/internal/transport"},
		Reason:    "commands ride the public cod SDK, never the backbone internals",
	},
	{
		Scope:     "codsim/examples/",
		Forbidden: []string{"codsim/internal/cb", "codsim/internal/wire", "codsim/internal/transport"},
		Reason:    "examples demonstrate the public SDK surface only",
	},
	{
		Scope: "codsim/internal/dist",
		Forbidden: []string{
			"codsim/internal/render", "codsim/internal/displaysync",
			"codsim/internal/dashboard", "codsim/internal/audio",
			"codsim/internal/instructor",
		},
		Reason: "batch coordination is headless; display-side packages stay out",
	},
	{
		Scope:     "codsim/internal/obs",
		Forbidden: []string{"codsim/internal/cb", "codsim/internal/wire", "codsim/internal/transport"},
		Reason:    "the telemetry plane consumes exported Stats/Tables types via the cod SDK's narrow Backbone interface, never the backbone internals",
	},
}

// inScope reports whether pkg falls under a boundary rule's scope.
func (r BoundaryRule) inScope(pkg string) bool {
	if strings.HasSuffix(r.Scope, "/") {
		return strings.HasPrefix(pkg, r.Scope)
	}
	return pkg == r.Scope
}

// forbids reports whether the rule bans importing path (exactly or any
// package under it).
func (r BoundaryRule) forbids(path string) bool {
	for _, f := range r.Forbidden {
		if path == f || strings.HasPrefix(path, f+"/") {
			return true
		}
	}
	return false
}
