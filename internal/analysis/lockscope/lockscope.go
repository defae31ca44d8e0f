// Package lockscope enforces the serving layer's lock-granularity
// invariant: a sync.Mutex/RWMutex must never be held across a duality
// decision (engine.Engine.Decide, Session.Decide, core.Decider.*) or a
// channel send. Decisions are unbounded work — the batch.Cache shard locks
// and the service mutexes exist to guard O(1) map/list operations, and
// holding one across a decision serializes the whole shard (or deadlocks
// against a waiter the decision is coalescing with). Channel sends block
// arbitrarily when the peer is slow.
//
// The analysis is a structured, per-function scan: it tracks which mutex
// expressions are locked at each point (including defer-Unlock, which
// holds to function end) and flags decision calls and sends inside a
// critical section. It is intentionally syntactic about identity (the
// lock expression's text) and does not follow locks across function
// boundaries; helpers that lock and let a callee unlock carry
// //dual:allow(lockscope: reason).
package lockscope

import (
	"go/ast"
	"go/types"

	"dualspace/internal/analysis"
)

// Analyzer is the lockscope rule.
var Analyzer = &analysis.Analyzer{
	Name: "lockscope",
	Doc:  "mutexes must not be held across engine decisions or channel sends",
	Run:  run,
}

// decisionMethods are the unbounded-work calls that must run lock-free.
var decisionMethods = map[string]bool{
	"Decide": true, "DecideContext": true, "DecideWith": true,
	"DecideParallel": true, "DecideSearch": true,
	"TrSubset": true, "TrSubsetContext": true,
}

// decisionPkgs are the packages whose Decide-family methods count.
var decisionPkgs = map[string]bool{
	"dualspace/internal/engine": true,
	"dualspace/internal/core":   true,
}

func run(pass *analysis.Pass) error {
	analysis.FuncBodies(pass.Files, func(decl *ast.FuncDecl, body *ast.BlockStmt) {
		s := &scanner{pass: pass, held: map[string]bool{}}
		s.block(body.List)
	})
	// Function literals get their own scan: goroutine bodies and handler
	// closures are exactly where lock-across-send bugs live.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				s := &scanner{pass: pass, held: map[string]bool{}}
				s.block(lit.Body.List)
			}
			return true
		})
	}
	return nil
}

type scanner struct {
	pass *analysis.Pass
	held map[string]bool // lock expression text → held
}

func (s *scanner) anyHeld() (string, bool) {
	for k, v := range s.held {
		if v {
			return k, true
		}
	}
	return "", false
}

// mutexCall classifies X.Lock/RLock/Unlock/RUnlock where X is a
// sync.Mutex or sync.RWMutex (possibly behind a pointer), returning the
// normalized lock identity and whether it acquires.
func (s *scanner) mutexCall(call *ast.CallExpr) (id string, acquire, release bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		release = true
	default:
		return "", false, false
	}
	selection, ok := s.pass.TypesInfo.Selections[sel]
	if !ok {
		return "", false, false
	}
	recv := selection.Recv()
	if !analysis.NamedFrom(recv, "sync", "Mutex") && !analysis.NamedFrom(recv, "sync", "RWMutex") {
		return "", false, false
	}
	return types.ExprString(ast.Unparen(sel.X)), acquire, release
}

// block scans a statement list, mutating the held set in order.
func (s *scanner) block(stmts []ast.Stmt) {
	for _, st := range stmts {
		s.stmt(st)
	}
}

func (s *scanner) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		s.expr(st.X)
	case *ast.SendStmt:
		if lock, held := s.anyHeld(); held {
			s.pass.Reportf(st.Arrow, "channel send while holding %s; sends block unboundedly — release the lock first", lock)
		}
		s.exprOnly(st.Chan)
		s.exprOnly(st.Value)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			s.expr(e)
		}
	case *ast.DeferStmt:
		if id, _, release := s.mutexCall(st.Call); release {
			// defer Unlock: the lock is held for the remainder of the
			// function — model by keeping it held from here on.
			s.held[id] = true
		} else {
			s.exprOnly(st.Call)
		}
	case *ast.GoStmt:
		s.exprOnly(st.Call)
	case *ast.BlockStmt:
		s.block(st.List)
	case *ast.IfStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		s.exprOnly(st.Cond)
		s.branch(st.Body.List)
		if st.Else != nil {
			s.branch([]ast.Stmt{st.Else})
		}
	case *ast.ForStmt:
		s.branch(st.Body.List)
	case *ast.RangeStmt:
		s.exprOnly(st.X)
		s.branch(st.Body.List)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var bodies [][]ast.Stmt
		switch sw := st.(type) {
		case *ast.SwitchStmt:
			for _, c := range sw.Body.List {
				bodies = append(bodies, c.(*ast.CaseClause).Body)
			}
		case *ast.TypeSwitchStmt:
			for _, c := range sw.Body.List {
				bodies = append(bodies, c.(*ast.CaseClause).Body)
			}
		case *ast.SelectStmt:
			for _, c := range sw.Body.List {
				cc := c.(*ast.CommClause)
				if cc.Comm != nil {
					s.branch([]ast.Stmt{cc.Comm})
				}
				bodies = append(bodies, cc.Body)
			}
		}
		for _, b := range bodies {
			s.branch(b)
		}
	case *ast.LabeledStmt:
		s.stmt(st.Stmt)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			s.exprOnly(r)
		}
	}
}

// branch scans nested statements against a copy of the current lock state:
// acquisitions and releases inside a branch are visible within it but do
// not leak into the fallthrough path (branches are assumed balanced; an
// unbalanced branch is a shape this structured scan cannot follow and is
// the caller's responsibility to annotate).
func (s *scanner) branch(stmts []ast.Stmt) {
	saved := make(map[string]bool, len(s.held))
	for k, v := range s.held {
		saved[k] = v
	}
	s.block(stmts)
	s.held = saved
}

// expr scans an expression in statement position: lock/unlock calls mutate
// the state; decision calls are checked against it.
func (s *scanner) expr(e ast.Expr) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		s.exprOnly(e)
		return
	}
	if id, acquire, release := s.mutexCall(call); acquire || release {
		s.held[id] = acquire
		return
	}
	s.exprOnly(e)
}

// exprOnly checks decision calls (and nested sends inside closures are
// handled by the literal's own scan) without mutating lock state.
func (s *scanner) exprOnly(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if lock, held := s.anyHeld(); held {
			if name, ok := s.decisionCall(call); ok {
				s.pass.Reportf(call.Pos(), "%s called while holding %s; decisions are unbounded work — release the lock first", name, lock)
			}
		}
		return true
	})
}

// decisionCall reports whether call is a Decide-family method on an
// engine/core type (including the engine.Engine interface).
func (s *scanner) decisionCall(call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !decisionMethods[sel.Sel.Name] {
		return "", false
	}
	selection, ok := s.pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return "", false
	}
	t := selection.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return "", false
	}
	if !decisionPkgs[analysis.PkgPath(named.Obj())] {
		return "", false
	}
	return named.Obj().Name() + "." + sel.Sel.Name, true
}
