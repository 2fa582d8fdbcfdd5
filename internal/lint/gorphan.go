package lint

import (
	"go/ast"
	"go/types"
)

// supervisedPkgs are the packages whose goroutines must be lexically
// supervised (drain/restart machinery): the streaming pipeline, the
// worker pool, and the daemon supervisor.
var supervisedPkgs = []string{"internal/pipeline", "internal/sim", "cmd/mmlabd"}

// checkGorphan requires every go statement in the supervised packages
// (the mmlabd pipeline) to be lexically paired with its supervision:
// either a WaitGroup.Add call in one of the two statements immediately
// preceding the go statement in the same block, or a deferred
// WaitGroup.Done inside the spawned func literal. The drain/restart
// machinery joins on those WaitGroups; an unregistered goroutine is
// invisible to it and leaks across drain, restart, and the soak test's
// zero-leak assertion.
func checkGorphan(u *Unit) []Finding {
	if !pathMatches(u.ImportPath, supervisedPkgs) {
		return nil
	}
	var out []Finding
	for _, file := range u.Files {
		if isTestFile(u.Fset, file.Pos()) {
			continue
		}
		// go statements whose enclosing statement list has a WaitGroup
		// registration within the two preceding statements.
		paired := map[*ast.GoStmt]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			var stmts []ast.Stmt
			switch n := n.(type) {
			case *ast.BlockStmt:
				stmts = n.List
			case *ast.CaseClause:
				stmts = n.Body
			case *ast.CommClause:
				stmts = n.Body
			default:
				return true
			}
			for i, s := range stmts {
				gs, ok := s.(*ast.GoStmt)
				if !ok {
					continue
				}
				for j := i - 1; j >= 0 && j >= i-2; j-- {
					if hasWaitGroupCall(u, stmts[j], "Add") {
						paired[gs] = true
						break
					}
				}
			}
			return true
		})
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if paired[gs] || deferredDone(u, gs) {
				return true
			}
			out = append(out, Finding{
				Pos:   u.Fset.Position(gs.Pos()),
				Check: "gorphan",
				Message: "go statement without lexical supervision (no WaitGroup.Add immediately before it and no deferred Done in the goroutine); " +
					"register it with the drain machinery or annotate //mmvet:allow gorphan <reason>",
			})
			return true
		})
	}
	return out
}

// deferredDone reports whether the spawned function is a literal that
// defers a WaitGroup.Done (its exit is therefore joinable).
func deferredDone(u *Unit, gs *ast.GoStmt) bool {
	lit, ok := gs.Call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if d, ok := n.(*ast.DeferStmt); ok && isWaitGroupMethod(u, d.Call, "Done") {
			found = true
			return false
		}
		// Do not descend into nested func literals: their defers run at
		// their own exit, not the goroutine's.
		if _, ok := n.(*ast.FuncLit); ok && n != lit {
			return false
		}
		return true
	})
	return found
}

// hasWaitGroupCall reports whether stmt contains a call to the named
// method on a sync.WaitGroup.
func hasWaitGroupCall(u *Unit, stmt ast.Stmt, method string) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isWaitGroupMethod(u, call, method) {
			found = true
			return false
		}
		return true
	})
	return found
}

func isWaitGroupMethod(u *Unit, call *ast.CallExpr, method string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	selection, ok := u.Info.Selections[sel]
	if !ok {
		return false
	}
	t := selection.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
