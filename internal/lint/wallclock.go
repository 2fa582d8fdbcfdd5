package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// wallClockFuncs are the package time functions that read or schedule
// against the process wall clock. Any of them inside a deterministic
// package makes campaign output depend on host timing.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// checkWallClock bans wall-clock reads in the deterministic packages:
// every package under internal/ except the pipeline tree, whose
// timings, deadlines and checkpoint cadence are wall-clock by nature.
// cmd/*, examples and the root package are exempt, and so are _test.go
// files: tests may time out or poll, they just may not feed wall-clock
// into asserted output (which the differential determinism tests would
// catch).
func checkWallClock(u *Unit) []Finding {
	if !pathMatches(u.ImportPath, []string{"internal"}) || pathMatches(u.ImportPath, []string{"internal/pipeline"}) {
		return nil
	}
	var out []Finding
	for _, file := range u.Files {
		if isTestFile(u.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := u.Info.Uses[sel.Sel]
			if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			if _, isFunc := obj.(*types.Func); !isFunc || !wallClockFuncs[obj.Name()] {
				return true
			}
			out = append(out, Finding{
				Pos:   u.Fset.Position(sel.Pos()),
				Check: "wallclock",
				Message: fmt.Sprintf("time.%s reads the wall clock; %s is a deterministic package — take time from the simulation clock or move this to internal/pipeline or cmd",
					obj.Name(), u.ImportPath),
			})
			return true
		})
	}
	return out
}
