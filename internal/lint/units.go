package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// unitsPkgPatterns identifies the dimensional-types package; any defined
// type whose origin package matches is a unit type. The golden testdata
// loads a stand-in package under the same import-path suffix.
var unitsPkgPatterns = []string{"internal/units"}

// literalExemptPkgs are packages whose job is literal-to-quantity
// construction — config parsers and quantizer tables bind raw numbers to
// typed fields by design, so the untyped-literal rule stays quiet there
// (test fixtures are exempted by file, not by package).
var literalExemptPkgs = []string{"internal/config"}

// checkUnits enforces the dimensional discipline of internal/units,
// catching what Go's type system structurally cannot:
//
//   - conversions between two distinct unit types (the silent dB/dBm
//     swap — both are float64 underneath, so units.Db(someDbm) compiles);
//   - conversions that launder a unit back into a bare number
//     (float64(rsrp) instead of the greppable rsrp.V());
//   - +,-,*,/ between two absolute dBm levels, which is affine-space
//     abuse: level+level is not a level, level−level is a relative dB
//     (use .Add/.SubDb/.Sub), and scaling a logarithmic level is
//     dimensionless soup;
//   - untyped numeric literals flowing into unit-typed parameters or
//     struct fields, where nothing at the call site says whether 3 means
//     3 dB or 3 dBm — write units.Db(3) so the axis is visible.
//
// Construction sites are exempt: the units package itself, the
// internal/config parsers/quantizers, _test.go fixtures, and composite
// literals whose element type is written at the site ([]units.Db{5, 12}).
func checkUnits(u *Unit) []Finding {
	if pathMatches(u.ImportPath, unitsPkgPatterns) {
		return nil
	}
	literalExempt := pathMatches(u.ImportPath, literalExemptPkgs)
	var out []Finding
	for _, file := range u.Files {
		literalExemptFile := literalExempt || isTestFile(u.Fset, file.Pos())
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if tv, ok := u.Info.Types[n.Fun]; ok && tv.IsType() {
					if f := unitsConversion(u, n, tv.Type); f != nil {
						out = append(out, *f)
					}
					return true
				}
				if !literalExemptFile {
					out = append(out, unitsLiteralArgs(u, n)...)
				}
			case *ast.BinaryExpr:
				if f := unitsLevelArithmetic(u, n); f != nil {
					out = append(out, *f)
				}
			case *ast.CompositeLit:
				if !literalExemptFile {
					out = append(out, unitsLiteralFields(u, n)...)
				}
			}
			return true
		})
	}
	return out
}

// unitNamed returns the named type if t is a defined type from the units
// package, else nil.
func unitNamed(t types.Type) *types.Named {
	n, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return nil
	}
	if !pathMatches(obj.Pkg().Path(), unitsPkgPatterns) {
		return nil
	}
	return n
}

// unitName renders a unit type for messages, e.g. "units.Dbm".
func unitName(n *types.Named) string {
	return n.Obj().Pkg().Name() + "." + n.Obj().Name()
}

// unitsConversion inspects a type conversion T(x) with target type t.
func unitsConversion(u *Unit, call *ast.CallExpr, target types.Type) *Finding {
	if len(call.Args) != 1 {
		return nil
	}
	argTV, ok := u.Info.Types[call.Args[0]]
	if !ok {
		return nil
	}
	src := unitNamed(argTV.Type)
	if src == nil {
		return nil // constructing a unit from a bare number is the sanctioned form
	}
	dst := unitNamed(target)
	switch {
	case dst == nil:
		return &Finding{
			Pos:   u.Fset.Position(call.Pos()),
			Check: "units",
			Message: fmt.Sprintf("conversion %s(…) launders %s into a bare number; unwrap with .V() at the I/O boundary or annotate //mmvet:allow units <reason>",
				types.TypeString(target, types.RelativeTo(u.Pkg)), unitName(src)),
		}
	case dst != src:
		return &Finding{
			Pos:   u.Fset.Position(call.Pos()),
			Check: "units",
			Message: fmt.Sprintf("conversion from %s to %s crosses unit axes (dB/dBm mix-up?); use an explicit helper from internal/units or annotate //mmvet:allow units <reason>",
				unitName(src), unitName(dst)),
		}
	}
	return nil
}

// isLevel reports whether t is the absolute-level type (units.Dbm),
// whose values form an affine space: differences are relative (Db), sums
// and scalings are dimensionally meaningless.
func isLevel(t types.Type) bool {
	n := unitNamed(t)
	return n != nil && n.Obj().Name() == "Dbm"
}

// unitsLevelArithmetic flags +,-,*,/ whose operands abuse the dBm level
// axis. Untyped-constant operands are permitted for + and − (shifting a
// level by a literal offset is the config idiom); two runtime levels
// must go through the explicit helpers so the result carries the right
// unit.
func unitsLevelArithmetic(u *Unit, b *ast.BinaryExpr) *Finding {
	switch b.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO:
	default:
		return nil
	}
	if tv, ok := u.Info.Types[b]; ok && tv.Value != nil {
		return nil // constant-folded expression, e.g. inside a conversion of consts
	}
	xTV, xOK := u.Info.Types[b.X]
	yTV, yOK := u.Info.Types[b.Y]
	if !xOK || !yOK {
		return nil
	}
	xLevel := isLevel(xTV.Type) && xTV.Value == nil
	yLevel := isLevel(yTV.Type) && yTV.Value == nil
	pos := u.Fset.Position(b.OpPos)
	switch b.Op {
	case token.ADD:
		if xLevel && yLevel {
			return &Finding{Pos: pos, Check: "units",
				Message: "sum of two absolute dBm levels is not a level; shift by a relative offset with .Add(units.Db) or annotate //mmvet:allow units <reason>"}
		}
	case token.SUB:
		if xLevel && yLevel {
			return &Finding{Pos: pos, Check: "units",
				Message: "difference of two absolute dBm levels is a relative dB, not a level; use .Sub (returns units.Db) or .SubDb, or annotate //mmvet:allow units <reason>"}
		}
	case token.MUL, token.QUO:
		if xLevel || yLevel {
			return &Finding{Pos: pos, Check: "units",
				Message: "scaling an absolute dBm level is dimensionally meaningless (dBm is logarithmic); unwrap with .V() if the raw number is intended, or annotate //mmvet:allow units <reason>"}
		}
	}
	return nil
}

// untypedNumericLit unwraps parens and a leading sign and reports
// whether e is a bare numeric literal. Zero is exempt: it is the same
// point on every axis, so 0 carries no unit ambiguity.
func untypedNumericLit(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.SUB && x.Op != token.ADD {
				return false
			}
			e = x.X
		case *ast.BasicLit:
			if x.Kind != token.INT && x.Kind != token.FLOAT {
				return false
			}
			return !isZeroLit(x.Value)
		default:
			return false
		}
	}
}

func isZeroLit(s string) bool {
	for _, c := range s {
		switch c {
		case '0', '.':
		default:
			return false
		}
	}
	return true
}

// unitsLiteralArgs flags bare numeric literals passed to unit-typed
// parameters: threshold(-100) says nothing about the axis; write
// threshold(units.Dbm(-100)).
func unitsLiteralArgs(u *Unit, call *ast.CallExpr) []Finding {
	tv, ok := u.Info.Types[call.Fun]
	if !ok {
		return nil
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	var out []Finding
	for i, arg := range call.Args {
		if !untypedNumericLit(arg) {
			continue
		}
		var pt types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if s, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < sig.Params().Len():
			pt = sig.Params().At(i).Type()
		}
		if pt == nil {
			continue
		}
		if n := unitNamed(pt); n != nil {
			out = append(out, Finding{
				Pos:   u.Fset.Position(arg.Pos()),
				Check: "units",
				Message: fmt.Sprintf("bare numeric literal for %s parameter; write %s(…) so the unit is visible at the call site, or annotate //mmvet:allow units <reason>",
					unitName(n), unitName(n)),
			})
		}
	}
	return out
}

// unitsLiteralFields flags bare numeric literals bound to unit-typed
// struct fields in composite literals. Slice/array/map literals with a
// unit element type are exempt: []units.Db{5, 12} states the unit at
// the site; cfg{Offset: 3} does not.
func unitsLiteralFields(u *Unit, cl *ast.CompositeLit) []Finding {
	tv, ok := u.Info.Types[cl]
	if !ok {
		return nil
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var out []Finding
	flag := func(f *types.Var, val ast.Expr) {
		if !untypedNumericLit(val) {
			return
		}
		if n := unitNamed(f.Type()); n != nil {
			out = append(out, Finding{
				Pos:   u.Fset.Position(val.Pos()),
				Check: "units",
				Message: fmt.Sprintf("bare numeric literal for %s field %s; write %s(…) so the unit is visible at the construction site, or annotate //mmvet:allow units <reason>",
					unitName(n), f.Name(), unitName(n)),
			})
		}
	}
	for i, elt := range cl.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			for j := 0; j < st.NumFields(); j++ {
				if st.Field(j).Name() == key.Name {
					flag(st.Field(j), kv.Value)
					break
				}
			}
			continue
		}
		if i < st.NumFields() {
			flag(st.Field(i), elt)
		}
	}
	return out
}
