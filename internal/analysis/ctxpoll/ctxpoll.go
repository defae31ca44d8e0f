// Package ctxpoll enforces the cancellation invariant introduced in PR 2:
// every decision walk polls its context at every tree node, so a cancelled
// request stops within one node rather than one decomposition. Two rules:
//
//  1. In any function that takes a context.Context, each outermost loop
//     that performs calls must reference the context somewhere in its body
//     — either by polling it directly (ctx.Err, select on ctx.Done) or by
//     passing it to the work it calls, which then owns the obligation.
//     Loops with a small constant trip count and call-free arithmetic
//     loops (the bitset word loops) are exempt.
//
//  2. In the serving and application layers (internal/service,
//     internal/batch, internal/itemsets, internal/keys, internal/coterie,
//     and the cmd/ binaries), a function that has a context in scope must
//     not call a context-free function (or method) when its package (or
//     receiver) declares a ctx-taking *Context or *With sibling — the
//     façade's Explain/ExplainWith and fkdual's DecideA/DecideAContext and
//     DecideB/DecideBContext. The context-free form is for callers without
//     a ctx only; calling it from a request path silently severs
//     cancellation.
//
// Intentional exceptions carry //dual:allow(ctxpoll: reason).
package ctxpoll

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"dualspace/internal/analysis"
)

// Analyzer is the ctxpoll rule.
var Analyzer = &analysis.Analyzer{
	Name: "ctxpoll",
	Doc:  "context-taking functions must poll ctx in loops and call *Context/*With variants",
	Run:  run,
}

// smallLoopMax is the largest literal trip count considered trivially
// bounded for rule 1.
const smallLoopMax = 8

// variantCallerPkgs are the package-path prefixes rule 2 applies to.
var variantCallerPkgs = []string{
	"dualspace/internal/service",
	"dualspace/internal/batch",
	"dualspace/internal/itemsets",
	"dualspace/internal/keys",
	"dualspace/internal/coterie",
	"dualspace/cmd/",
	"dualspace/fixture/", // analysistest packages opt in via their path
}

func run(pass *analysis.Pass) error {
	checkVariants := false
	for _, prefix := range variantCallerPkgs {
		if strings.HasPrefix(pass.Pkg.Path(), prefix) || pass.Pkg.Path() == strings.TrimSuffix(prefix, "/") {
			checkVariants = true
		}
	}
	analysis.FuncBodies(pass.Files, func(decl *ast.FuncDecl, body *ast.BlockStmt) {
		ctx := analysis.CtxParam(pass.TypesInfo, decl)
		if ctx == nil {
			return
		}
		checkLoops(pass, ctx, body)
		if checkVariants {
			checkVariantCalls(pass, decl, body)
		}
	})
	return nil
}

// checkLoops flags outermost calling loops that never reference ctx.
// Nested loops are covered by their outermost ancestor: a reference
// anywhere inside the outer body bounds the poll interval by one outer
// iteration, which is the granularity the kernel promises ("every tree
// node", not every word of every bitset).
func checkLoops(pass *analysis.Pass, ctx types.Object, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		var loopBody *ast.BlockStmt
		var pos token.Pos
		switch loop := n.(type) {
		case *ast.ForStmt:
			if smallConstLoop(loop) {
				return true // descend: an inner loop may still be unbounded
			}
			loopBody, pos = loop.Body, loop.For
		case *ast.RangeStmt:
			if smallRange(loop) {
				return true
			}
			loopBody, pos = loop.Body, loop.For
		case *ast.FuncLit:
			// A literal runs on its own schedule (goroutine, callback);
			// its loops answer to whatever context it closes over, and
			// rule 1 only audits the declared parameter's own frame.
			return false
		default:
			return true
		}
		if !hasCalls(loopBody) {
			return true // arithmetic-only loop; descend for nested ones
		}
		if analysis.UsesObject(pass.TypesInfo, loopBody, ctx) {
			return false // polled (or delegated) at this granularity
		}
		pass.Reportf(pos, "loop with calls never references ctx; poll ctx (or call a *Context variant) at every iteration")
		return false
	})
}

func smallConstLoop(loop *ast.ForStmt) bool {
	cond, ok := loop.Cond.(*ast.BinaryExpr)
	if !ok || (cond.Op != token.LSS && cond.Op != token.LEQ) {
		return false
	}
	lit, ok := cond.Y.(*ast.BasicLit)
	if !ok || lit.Kind != token.INT {
		return false
	}
	n, err := strconv.Atoi(lit.Value)
	return err == nil && n <= smallLoopMax
}

// smallRange reports whether loop ranges over a composite literal with at
// most smallLoopMax elements — a trivially bounded trip count.
func smallRange(loop *ast.RangeStmt) bool {
	lit, ok := ast.Unparen(loop.X).(*ast.CompositeLit)
	return ok && len(lit.Elts) <= smallLoopMax
}

func hasCalls(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if _, isBuiltin := builtinNames[fun.Name]; isBuiltin {
				return true
			}
		case *ast.ArrayType, *ast.MapType:
			return true // conversion
		}
		found = true
		return false
	})
	return found
}

var builtinNames = map[string]struct{}{
	"len": {}, "cap": {}, "append": {}, "copy": {}, "delete": {}, "min": {},
	"max": {}, "make": {}, "new": {}, "panic": {}, "print": {}, "println": {},
	"clear": {}, "complex": {}, "real": {}, "imag": {},
}

// checkVariantCalls flags calls to context-free functions that have a
// *Context/*With sibling, from functions that hold a ctx.
func checkVariantCalls(pass *analysis.Pass, decl *ast.FuncDecl, body *ast.BlockStmt) {
	info := pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := analysis.Callee(info, call)
		if obj == nil {
			return true
		}
		fn, ok := obj.(*types.Func)
		if !ok || !strings.HasPrefix(analysis.PkgPath(fn), "dualspace/") {
			return true
		}
		if !fn.Exported() {
			return true // the sibling convention is exported API surface
		}
		if fn == info.Defs[decl.Name] {
			return true // self-recursion
		}
		sig := fn.Type().(*types.Signature)
		if takesContext(sig) {
			return true // already a context-aware call
		}
		if variant := contextVariant(fn); variant != "" {
			pass.Reportf(call.Pos(), "call %s instead of %s: the caller has a ctx and the context-free form severs cancellation", variant, fn.Name())
		}
		return true
	})
}

func takesContext(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if analysis.IsContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// contextVariant returns the name of a *Context/*With sibling of fn that
// itself takes a context.Context — a package-level function next to a
// package-level fn, or a method on the same receiver type for methods.
func contextVariant(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	for _, suffix := range []string{"Context", "With"} {
		name := fn.Name() + suffix
		var alt types.Object
		if recv := sig.Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := types.Unalias(t).(*types.Named)
			if !ok {
				continue
			}
			for m := 0; m < named.NumMethods(); m++ {
				if named.Method(m).Name() == name {
					alt = named.Method(m)
					break
				}
			}
		} else if fn.Pkg() != nil {
			alt = fn.Pkg().Scope().Lookup(name)
		}
		altFn, ok := alt.(*types.Func)
		if ok && takesContext(altFn.Type().(*types.Signature)) {
			return name
		}
	}
	return ""
}
