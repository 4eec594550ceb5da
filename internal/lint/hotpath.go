package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"antsearch/internal/lint/analysis"
)

// HotPath checks functions marked //antlint:hotpath — the monomorphic trial
// kernel (sim.runLoop and its leaves), trajectory.Seg.Scan and the xrand
// samplers. Three PRs of devirtualization and allocation hunting
// (PR 3: value streams + concrete Seg, PR 4: monomorphic kernel,
// PR 6: sortie batch emission) hold only as long as nobody reintroduces
// dispatch or allocation into these bodies; the benchmark gate catches big
// regressions after the fact, this analyzer catches the construct itself at
// compile time.
//
// Inside a marked function the analyzer rejects:
//
//   - interface method calls — dynamic dispatch; the engine's one sanctioned
//     dispatch per batch (agent.Searcher.EmitSortie in the engine's refill)
//     carries an explicit //antlint:allow hotpath. Calls on type parameters
//     are exempt (a gcshape dictionary call, not interface dispatch); no
//     marked function currently makes one.
//   - closure allocations (func literals) and defer/go statements;
//   - any fmt or log call — formatting allocates and boxes every operand;
//     error construction belongs in cold helper functions;
//   - implicit boxing of a value into an interface-typed argument, and
//     taking the address of a by-value parameter — both make the escape
//     analyzer move hot state to the heap.
var HotPath = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "functions marked //antlint:hotpath may not contain interface method\n" +
		"calls, closures, fmt/log usage, defer/go, or implicit heap escapes of parameters",
	Run: runHotPath,
}

func runHotPath(pass *analysis.Pass) (any, error) {
	dirs := ParseDirectives(pass, false)
	// Export behavior facts for this package's functions (whether or not any
	// is hot): downstream packages' hot bodies may call them.
	ensureBehaviors(pass, dirs)
	attached := make(map[token.Pos]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !dirs.Marked(VerbHotpath, fn) {
				continue
			}
			dirs.Claim(VerbHotpath, fn.Pos(), attached)
			if fn.Body == nil {
				pass.Reportf(fn.Pos(), "antlint:hotpath marks %s, which has no body to check", fn.Name.Name)
				continue
			}
			checkHotFunc(pass, dirs, fn)
		}
	}
	dirs.CheckMarkers(pass, VerbHotpath, "a function declaration", attached)
	return nil, nil
}

// checkHotFunc walks one marked function body.
func checkHotFunc(pass *analysis.Pass, dirs *Directives, fn *ast.FuncDecl) {
	params := paramObjects(pass, fn)
	report := func(pos token.Pos, format string, args ...any) {
		if !dirs.Allowed(pass.Analyzer.Name, pos) {
			pass.Reportf(pos, "hotpath %s: "+format, append([]any{fn.Name.Name}, args...)...)
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "closure allocation; hoist the function or restructure the loop")
			return false // the literal's body is cold by definition here
		case *ast.DeferStmt:
			report(n.Pos(), "defer in the hot path; release resources explicitly on each exit")
		case *ast.GoStmt:
			report(n.Pos(), "goroutine launch in the hot path")
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := n.X.(*ast.Ident); ok {
					if obj := pass.TypesInfo.Uses[id]; obj != nil && params[obj] {
						report(n.Pos(), "address of parameter %s escapes; a hot parameter must stay on the stack", id.Name)
					}
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, report, n)
		}
		return true
	})
}

// checkHotCall applies the dispatch and boxing rules to one call.
func checkHotCall(pass *analysis.Pass, report func(token.Pos, string, ...any), call *ast.CallExpr) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		// fmt/log package calls.
		if id, ok := sel.X.(*ast.Ident); ok {
			if pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
				if p := pkg.Imported().Path(); p == "fmt" || p == "log" {
					report(call.Pos(), "%s.%s call; formatting allocates — build errors and messages in cold helpers", p, sel.Sel.Name)
					return
				}
			}
		}
		// Interface method calls (dynamic dispatch).
		if s, ok := pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.MethodVal {
			recv := s.Recv()
			if _, isTypeParam := types.Unalias(recv).(*types.TypeParam); !isTypeParam && types.IsInterface(recv) {
				report(call.Pos(), "interface method call %s.%s (dynamic dispatch on %s)", exprString(sel.X), sel.Sel.Name, recv)
			}
		}
	}
	// Transitive violations: a static callee — in this or any imported
	// package — whose exported behavior fact says it allocates or dispatches.
	// Callees that are themselves //antlint:hotpath-marked are certified at
	// their definition and skipped here.
	if callee := staticCallee(pass.TypesInfo, call); callee != nil && pass.ImportObjectFact != nil {
		var fb FuncBehavior
		if pass.ImportObjectFact(callee, &fb) && !fb.Marked {
			if fb.Dispatches {
				report(call.Pos(), "call of %s performs dynamic dispatch (%s); mark the callee //antlint:hotpath or keep it off the hot path", funcDisplayName(callee), fb.DispatchesVia)
			} else if fb.Allocates {
				report(call.Pos(), "call of %s allocates (%s); hoist the allocation out of the hot path or allow it with a reason", funcDisplayName(callee), fb.AllocatesVia)
			}
		}
	}
	// Implicit boxing: a non-interface value passed where the callee takes
	// an interface. Builtins (len, append, panic, ...) are exempt — panic is
	// the cold exit and the others do not box.
	sig, ok := pass.TypesInfo.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var paramType types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			last := sig.Params().At(sig.Params().Len() - 1).Type()
			if sl, ok := last.(*types.Slice); ok {
				paramType = sl.Elem()
			}
		case i < sig.Params().Len():
			paramType = sig.Params().At(i).Type()
		}
		if paramType == nil || !types.IsInterface(paramType) {
			continue
		}
		if _, isTypeParam := types.Unalias(paramType).(*types.TypeParam); isTypeParam {
			continue
		}
		tv := pass.TypesInfo.Types[arg]
		if tv.Type == nil || types.IsInterface(tv.Type) {
			continue
		}
		if tv.Value != nil {
			continue // constants box to static data, no per-call allocation
		}
		if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		report(arg.Pos(), "implicit conversion of %s to interface %s allocates; keep hot values concrete", tv.Type, paramType)
	}
}

// paramObjects collects the function's by-value parameters and receiver —
// the identifiers whose address must not be taken in a hot body.
func paramObjects(pass *analysis.Pass, fn *ast.FuncDecl) map[types.Object]bool {
	set := make(map[types.Object]bool)
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					if _, isPtr := obj.Type().Underlying().(*types.Pointer); !isPtr {
						set[obj] = true
					}
				}
			}
		}
	}
	add(fn.Recv)
	add(fn.Type.Params)
	return set
}

// exprString renders a short expression for diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	default:
		return "expression"
	}
}
