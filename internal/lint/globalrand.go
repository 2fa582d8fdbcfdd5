package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// globalRandOK are the math/rand package-level functions that do NOT
// draw from the process-global source: constructors for injectable
// generators. rand.NewSource is not among them; see seedingPkg.
var globalRandOK = map[string]bool{
	"New": true, "NewZipf": true,
	// math/rand/v2 constructors.
	"NewPCG": true, "NewChaCha8": true,
}

// seedingPkg is the one package that may call rand.NewSource: every
// other seeded generator comes from its rng.New, which has the same
// stream without math/rand's eager 607-word seeding.
const seedingPkg = "internal/rng"

// checkGlobalRand bans package-level math/rand draws everywhere,
// tests included: the global source is seeded per-process, so anything
// it feeds cannot be replayed. Randomness must flow from a seeded
// *rand.Rand handed in by the caller (see sim.DeriveSeed). It also
// keeps one seeding path: rand.NewSource is reported outside
// internal/rng.
func checkGlobalRand(u *Unit) []Finding {
	var out []Finding
	for _, file := range u.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := u.Info.Uses[sel.Sel]
			if !ok || obj.Pkg() == nil {
				return true
			}
			path := obj.Pkg().Path()
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			fn, isFunc := obj.(*types.Func)
			// Methods on *rand.Rand arrive as selections on a value, not
			// package-level uses; only flag package-qualified calls.
			if !isFunc || globalRandOK[fn.Name()] || pkgOf(u, sel) == "" {
				return true
			}
			msg := fmt.Sprintf("%s.%s draws from the process-global source; inject a seeded *rand.Rand instead",
				path, fn.Name())
			if fn.Name() == "NewSource" {
				if pathMatches(u.ImportPath, []string{seedingPkg}) {
					return true
				}
				msg = fmt.Sprintf("%s.NewSource seeds outside %s; use rng.New, the one seeding path", path, seedingPkg)
			}
			out = append(out, Finding{
				Pos:     u.Fset.Position(sel.Pos()),
				Check:   "globalrand",
				Message: msg,
			})
			return true
		})
	}
	return out
}
