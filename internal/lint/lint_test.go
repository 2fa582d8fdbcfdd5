package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the quoted substring of a `// want "..."` comment.
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// runGolden loads one testdata package under importPath, analyzes it,
// and checks the findings of check against the file's `// want`
// comments: every want line must produce a matching finding and every
// finding must be wanted.
func runGolden(t *testing.T, name, importPath, check string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	units, err := LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	goldenCheck(t, units, check)
}

// goldenCheck matches Analyze's findings of check against `// want`
// comments in already-loaded units.
func goldenCheck(t *testing.T, units []*Unit, check string) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := map[key]string{}
	for _, u := range units {
		for _, f := range u.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := u.Fset.Position(c.Pos())
					wants[key{pos.Filename, pos.Line}] = m[1]
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatal("no want comments found")
	}

	matched := map[key]bool{}
	for _, f := range Analyze(units) {
		if f.Check != check {
			continue
		}
		k := key{f.Pos.Filename, f.Pos.Line}
		want, ok := wants[k]
		if !ok {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		if !strings.Contains(f.Message, want) {
			t.Errorf("%s:%d: finding %q does not contain want %q", k.file, k.line, f.Message, want)
		}
		matched[k] = true
	}
	for k, want := range wants {
		if !matched[k] {
			t.Errorf("%s:%d: wanted finding %q, got none", k.file, k.line, want)
		}
	}
}

func TestMapRangeGolden(t *testing.T) {
	runGolden(t, "maprange", "mmlab/testdata/maprange", "maprange")
}

func TestWallClockGolden(t *testing.T) {
	// Loaded under deterministic package paths so the check applies:
	// every package under internal/ outside the pipeline tree, including
	// the D2 fleet builders (carrier) and the diag capture codec (sib).
	for _, importPath := range []string{
		"mmlab/internal/core",
		"mmlab/internal/carrier",
		"mmlab/internal/sib",
	} {
		t.Run(importPath, func(t *testing.T) {
			runGolden(t, "wallclock", importPath, "wallclock")
		})
	}
}

func TestWallClockOffPathIsSilent(t *testing.T) {
	dir := filepath.Join("testdata", "src", "wallclock")
	units, err := LoadDir(dir, "mmlab/internal/pipeline")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Analyze(units) {
		if f.Check != "wallclock" {
			continue
		}
		t.Errorf("wallclock fired outside deterministic packages: %s", f)
	}
}

func TestGlobalRandGolden(t *testing.T) {
	runGolden(t, "globalrand", "mmlab/testdata/globalrand", "globalrand")
}

// TestGlobalRandSeedingPkg: inside internal/rng, rand.NewSource is the
// seeding path itself and is not reported; global draws still are.
func TestGlobalRandSeedingPkg(t *testing.T) {
	units, err := LoadDir(filepath.Join("testdata", "src", "globalrand"), "mmlab/internal/rng")
	if err != nil {
		t.Fatal(err)
	}
	draws := 0
	for _, f := range Analyze(units) {
		if f.Check != "globalrand" {
			continue
		}
		if strings.Contains(f.Message, "NewSource") {
			t.Errorf("NewSource reported inside internal/rng: %s", f)
		}
		draws++
	}
	if draws != 3 {
		t.Errorf("%d global-draw findings inside internal/rng, want 3", draws)
	}
}

func TestGorphanGolden(t *testing.T) {
	// Loaded under the supervised pipeline path so the check applies.
	runGolden(t, "gorphan", "mmlab/internal/pipeline", "gorphan")
}

func TestUnitsGolden(t *testing.T) {
	// The client package imports a stand-in units package loaded under
	// the real internal/units suffix, so unit types resolve exactly as
	// they do in the module.
	units, err := LoadDirs("mmlab", []DirSpec{
		{Dir: filepath.Join("testdata", "src", "units", "units"), ImportPath: "mmlab/internal/units"},
		{Dir: filepath.Join("testdata", "src", "units", "client"), ImportPath: "mmlab/internal/netsim"},
	})
	if err != nil {
		t.Fatalf("LoadDirs: %v", err)
	}
	goldenCheck(t, units, "units")
}

// TestRepoClean is the acceptance gate: mmvet over the real module must
// report zero findings.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	units, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	for _, f := range Analyze(units) {
		t.Errorf("finding: %s", f)
	}
}

// writeTempPkg materializes a one-file package for negative tests.
func writeTempPkg(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// findChecks runs all analyzers over dir-as-importPath and returns the
// set of check names that fired.
func findChecks(t *testing.T, dir, importPath string) map[string]int {
	t.Helper()
	units, err := LoadDir(dir, importPath)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, f := range Analyze(units) {
		got[f.Check]++
	}
	return got
}

// TestSeededViolations seeds one fresh violation per check in a temp
// package and requires mmvet to catch each: the tool must stay capable
// of failing, or a clean repo run proves nothing.
func TestSeededViolations(t *testing.T) {
	det := writeTempPkg(t, `package det

import (
	"math/rand"
	"time"
)

func leak(m map[string]int, sink chan string) int64 {
	for k := range m {
		sink <- k
	}
	_ = rand.Intn(7)
	return time.Now().UnixMilli()
}
`)
	got := findChecks(t, det, "mmlab/internal/core")
	for _, check := range []string{"maprange", "wallclock", "globalrand"} {
		if got[check] == 0 {
			t.Errorf("seeded %s violation not caught (got %v)", check, got)
		}
	}

	pipe := writeTempPkg(t, `package pipe

func spawn(f func()) {
	go f()
}
`)
	got = findChecks(t, pipe, "mmlab/internal/pipeline")
	if got["gorphan"] == 0 {
		t.Errorf("seeded gorphan violation not caught (got %v)", got)
	}

	// The seeded dB/dBm swap: a conversion between two unit axes.
	swap := writeTempPkg(t, `package core

import "mmlab/internal/units"

func swap(rsrp units.Dbm) units.Db {
	return units.Db(rsrp)
}
`)
	us, err := LoadDirs("mmlab", []DirSpec{
		{Dir: filepath.Join("testdata", "src", "units", "units"), ImportPath: "mmlab/internal/units"},
		{Dir: swap, ImportPath: "mmlab/internal/core"},
	})
	if err != nil {
		t.Fatal(err)
	}
	unitsHit := 0
	for _, f := range Analyze(us) {
		if f.Check == "units" {
			unitsHit++
		}
	}
	if unitsHit == 0 {
		t.Error("seeded dB/dBm swap not caught by the units analyzer")
	}
}

// TestAnnotationContract: reasonless and malformed annotations are
// findings themselves, and a reasoned annotation suppresses exactly its
// check.
func TestAnnotationContract(t *testing.T) {
	dir := writeTempPkg(t, `package annot

func bad(m map[string]int) []string {
	var out []string
	//mmvet:ordered
	for k := range m {
		out = append(out, k)
	}
	return out
}

func unknown(m map[string]int) []string {
	var out []string
	//mmvet:allow nosuchcheck because reasons
	//mmvet:allow lockorder not a check mmvet runs
	//mmvet:frobnicate whatever
	//mmvet:units not a directive; write allow units
	for k := range m {
		out = append(out, k)
	}
	return out
}

func wrongCheck(m map[string]int, sink chan string) {
	//mmvet:allow gorphan reason that names the wrong check
	for k := range m {
		sink <- k
	}
}
`)
	units, err := LoadDir(dir, "mmlab/testdata/annot")
	if err != nil {
		t.Fatal(err)
	}
	findings := Analyze(units)
	var annot, maprange int
	for _, f := range findings {
		switch f.Check {
		case "annotation":
			annot++
		case "maprange":
			maprange++
		}
	}
	// bad: reasonless ordered -> 1 annotation error, loop still flagged.
	// unknown: two unknown checks + two unknown verbs -> 4 annotation
	// errors, loop flagged.
	// wrongCheck: valid annotation for the wrong check -> loop still flagged.
	if annot != 5 {
		t.Errorf("annotation findings = %d, want 5: %v", annot, findings)
	}
	if maprange != 3 {
		t.Errorf("maprange findings = %d, want 3 (suppression must not leak across checks): %v", maprange, findings)
	}
}
