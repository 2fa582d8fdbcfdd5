// Package lint is mmvet: a static-analysis suite enforcing the repo's
// determinism invariants at compile time rather than by differential
// test. Every headline artifact (D1 taxonomy, D2 catalogs, mmlabd
// checkpoints) is required to be byte-identical across worker counts
// and process restarts; the analyzers here flag the construct classes
// that have historically broken that invariant — unordered map
// iteration feeding output, wall-clock reads in deterministic
// packages, the process-global math/rand source, and unsupervised
// goroutines in the pipeline — plus the dB/dBm unit discipline of the
// handover parameters themselves.
//
// Checks:
//
//   - maprange: a for-range over a map whose body appends to a slice,
//     writes through an encoder/writer/printer, sends on a channel, or
//     returns a value derived from the iteration variables is
//     order-sensitive. Iterate sorted keys instead, or annotate the
//     loop with //mmvet:ordered <reason>.
//   - wallclock: time.Now, time.Since, time.Until and timer
//     constructors are banned in every package under internal/ except
//     internal/pipeline and its subpackages. Simulated time must flow
//     from the event clock. Wall-clock stays legal in the pipeline,
//     cmd/*, examples, the root package, and _test.go files.
//   - globalrand: math/rand (and math/rand/v2) package-level draw
//     functions are banned everywhere, tests included; randomness must
//     flow from an injected seeded *rand.Rand.
//   - gorphan: a go statement inside the supervised packages
//     (internal/pipeline, internal/sim, cmd/mmlabd) must be lexically
//     paired with its supervision — a WaitGroup.Add in the immediately
//     preceding statements, or a deferred Done inside the spawned func
//     literal — so drain and restart cannot leak goroutines.
//   - units: dimensional discipline for the internal/units quantity
//     types — no conversions between unit axes (the dB/dBm swap), no
//     float64(x) laundering (use .V()), no raw arithmetic between two
//     absolute dBm levels (use .Add/.SubDb/.Sub), and no bare numeric
//     literals flowing into unit-typed parameters or struct fields
//     outside construction sites (internal/config, tests).
//
// Suppressions are per-line comments with a mandatory reason:
//
//	//mmvet:allow <check> <reason>
//	//mmvet:ordered <reason>          (shorthand for allow maprange)
//
// placed on the offending line or on the line directly above it. An
// annotation without a reason, naming an unknown check, or using an
// unknown directive is itself a finding. There is no baseline: every
// finding fails.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one diagnostic.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// allChecks lists every analyzer name.
var allChecks = []string{"maprange", "wallclock", "globalrand", "gorphan", "units"}

// Analyze runs every check over the units and returns the findings
// that survive annotation suppression, sorted by position. Malformed
// annotations are reported as findings of check "annotation".
func Analyze(units []*Unit) []Finding {
	var out []Finding
	for _, u := range units {
		dirs := directives(u)
		var raw []Finding
		raw = append(raw, checkMapRange(u)...)
		raw = append(raw, checkWallClock(u)...)
		raw = append(raw, checkGlobalRand(u)...)
		raw = append(raw, checkGorphan(u)...)
		raw = append(raw, checkUnits(u)...)
		for _, f := range raw {
			if u.Report(f.Pos.Filename) && !dirs.suppresses(f.Pos.Filename, f.Pos.Line, f.Check) {
				out = append(out, f)
			}
		}
		// Malformed annotations are findings in their own right, so a
		// reasonless //mmvet:allow can never silently ship.
		for _, f := range dirs.errors {
			if u.Report(f.Pos.Filename) {
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return dedupe(out)
}

func dedupe(fs []Finding) []Finding {
	var out []Finding
	for i, f := range fs {
		if i > 0 && f == fs[i-1] {
			continue
		}
		out = append(out, f)
	}
	return out
}

// directiveSet indexes the //mmvet: comments of one unit. A directive
// at line L suppresses matching findings on line L (trailing comment)
// and line L+1 (comment on its own line above the construct).
type directiveSet struct {
	allow  map[string]map[int][]string // file -> line -> suppressed checks
	errors []Finding
}

func directives(u *Unit) *directiveSet {
	ds := &directiveSet{allow: map[string]map[int][]string{}}
	for _, file := range u.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//mmvet:")
				if !ok {
					continue
				}
				pos := u.Fset.Position(c.Pos())
				verb, rest, _ := strings.Cut(strings.TrimSpace(text), " ")
				rest = strings.TrimSpace(rest)
				var check, reason string
				switch verb {
				case "ordered":
					check, reason = "maprange", rest
				case "allow":
					check, reason, _ = strings.Cut(rest, " ")
					reason = strings.TrimSpace(reason)
					if !knownCheck(check) {
						ds.errors = append(ds.errors, Finding{Pos: pos, Check: "annotation",
							Message: fmt.Sprintf("//mmvet:allow names unknown check %q (want one of %s)", check, strings.Join(allChecks, ", "))})
						continue
					}
				default:
					ds.errors = append(ds.errors, Finding{Pos: pos, Check: "annotation",
						Message: fmt.Sprintf("unknown directive //mmvet:%s (want allow or ordered)", verb)})
					continue
				}
				if reason == "" {
					ds.errors = append(ds.errors, Finding{Pos: pos, Check: "annotation",
						Message: fmt.Sprintf("//mmvet:%s requires a reason", verb)})
					continue
				}
				m := ds.allow[pos.Filename]
				if m == nil {
					m = map[int][]string{}
					ds.allow[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], check)
			}
		}
	}
	return ds
}

func (ds *directiveSet) suppresses(file string, line int, check string) bool {
	m := ds.allow[file]
	if m == nil {
		return false
	}
	for _, l := range []int{line, line - 1} {
		for _, c := range m[l] {
			if c == check {
				return true
			}
		}
	}
	return false
}

func knownCheck(name string) bool {
	for _, c := range allChecks {
		if c == name {
			return true
		}
	}
	return false
}

// pathMatches reports whether one of the patterns occurs in importPath
// on path-segment boundaries: pattern "internal/pipeline" matches
// "mmlab/internal/pipeline" and "mmlab/internal/pipeline/feeder".
func pathMatches(importPath string, patterns []string) bool {
	p := "/" + importPath + "/"
	for _, s := range patterns {
		if strings.Contains(p, "/"+s+"/") {
			return true
		}
	}
	return false
}

// isTestFile reports whether the file at pos is a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// funcName renders a called expression for messages, e.g. "time.Now".
func funcName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return funcName(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return funcName(e.X)
	default:
		return "?"
	}
}
