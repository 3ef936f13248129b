// Package determinism forbids nondeterminism sources in the packages whose
// byte-identical replay the chaos/recover experiments depend on.
//
// The simulation stack (internal/simnet, internal/faultplan,
// internal/harness, internal/experiments), the protocol state machine
// (internal/leopard), the bulk-lane scheduler simnet drives
// (internal/transport, without its TCP runtime internal/transport/tcp)
// and the trace/metrics layer they emit into (internal/obs) promise that
// two identically-seeded runs are byte-identical down to per-replica
// traffic counters — the property every chaos regression
// (TestChaosDeterministic, TestRecoverScenarioDeterministic) asserts and
// every fault schedule's reproducibility rests on. That promise
// dies the moment any of these packages reads the wall clock, draws from a
// process-global random source, or lets the Go scheduler order events. This
// analyzer rejects, in non-test files of those packages:
//
//   - time.Now, time.Since, time.Until, time.Sleep, time.After,
//     time.AfterFunc, time.Tick, time.NewTimer, time.NewTicker — simulated
//     components take the event clock as a parameter (`now time.Duration`);
//   - package-level math/rand and math/rand/v2 functions (rand.Intn,
//     rand.Shuffle, ...), which draw from the global, racily-shared source;
//     methods on an explicitly seeded *rand.Rand stay legal, as do the
//     constructors (rand.New, rand.NewSource, ...);
//   - go statements — deterministic execution is single-threaded by design;
//   - select statements with more than one case: which ready channel wins
//     is a scheduler decision.
//
// Exemption: annotate the line (or the enclosing function's doc comment)
// with `//lint:determinism-exempt <justification>`.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"leopard/internal/lint/analysis"
)

// Analyzer is the determinism invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock reads, global randomness, goroutines and channel races in deterministically replayed packages",
	Run:  run,
}

// scopedPrefixes are the import paths (and their subpackages) under the
// determinism contract.
var scopedPrefixes = []string{
	"leopard/internal/leopard",
	"leopard/internal/obs",
	"leopard/internal/simnet",
	"leopard/internal/faultplan",
	"leopard/internal/harness",
	"leopard/internal/experiments",
}

// scopedExact are import paths under the contract whose subpackages are
// not: internal/transport holds the scheduler simnet runs in virtual time,
// while internal/transport/tcp is the live runtime around it.
var scopedExact = []string{
	"leopard/internal/transport",
}

// forbiddenTimeFuncs are the wall-clock and scheduler-timer entry points of
// package time.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// allowedRandFuncs are the math/rand package-level constructors that build
// explicitly seeded sources — the sanctioned path to randomness.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func inScope(path string) bool {
	for _, p := range scopedExact {
		if path == p {
			return true
		}
	}
	for _, p := range scopedPrefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) (any, error) {
	if !inScope(pass.ImportPath) {
		return nil, nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, _ := decl.(*ast.FuncDecl)
			ast.Inspect(decl, func(n ast.Node) bool {
				switch node := n.(type) {
				case *ast.CallExpr:
					checkCall(pass, node, fd)
				case *ast.GoStmt:
					report(pass, node.Pos(), fd,
						"go statement in deterministic package: execution must stay single-threaded so identically-seeded runs replay byte-identically")
				case *ast.SelectStmt:
					if len(node.Body.List) > 1 {
						report(pass, node.Pos(), fd,
							"select over multiple cases in deterministic package: which ready channel wins is a scheduler decision, not a replayable one")
					}
				}
				return true
			})
		}
	}
	return nil, nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, encl *ast.FuncDecl) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. on a seeded *rand.Rand) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if forbiddenTimeFuncs[fn.Name()] {
			report(pass, call.Pos(), encl,
				"call to time.%s reads the wall clock or the runtime timer: deterministic packages must use the event clock (`now` parameter)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !allowedRandFuncs[fn.Name()] {
			report(pass, call.Pos(), encl,
				"global %s.%s draws from the process-wide random source: draw from an explicitly seeded *rand.Rand instead", fn.Pkg().Name(), fn.Name())
		}
	}
}

func report(pass *analysis.Pass, pos token.Pos, encl *ast.FuncDecl, format string, args ...any) {
	if pass.ExemptedAt(pos, "determinism-exempt", encl) {
		return
	}
	pass.Reportf(pos, format, args...)
}
