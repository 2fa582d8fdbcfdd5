package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Unit is one type-checked body of code to analyze: a package's
// non-test files, the same package augmented with its in-package test
// files, or an external _test package. Units exist because test files
// cannot be type-checked together with importable package code without
// polluting what other packages see.
type Unit struct {
	// ImportPath is the unit's import path; external test packages get
	// the base path (checks that match on package path treat the test
	// package as part of its package under test).
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	// reportFile filters findings: the augmented-with-tests unit only
	// reports positions inside _test.go files, since its non-test files
	// were already analyzed as the base unit.
	reportFile func(filename string) bool
}

// Report says whether a finding at filename belongs to this unit.
func (u *Unit) Report(filename string) bool {
	if u.reportFile == nil {
		return true
	}
	return u.reportFile(filename)
}

// parsedDir is one directory's parsed files, split the way go/build
// splits them.
type parsedDir struct {
	importPath string
	base       []*ast.File // package foo, not _test.go
	inTest     []*ast.File // package foo, _test.go
	extTest    []*ast.File // package foo_test
	baseName   string
}

// LoadModule parses and type-checks every package under root (a module
// root containing go.mod) and returns one or more Units per package in
// a deterministic order. testdata, vendor, and hidden directories are
// skipped, matching the go tool.
func LoadModule(root string) ([]*Unit, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	var dirs []*parsedDir
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		pd, err := parseDir(fset, path, importPathFor(modPath, root, path))
		if err != nil {
			return err
		}
		if pd != nil {
			dirs = append(dirs, pd)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].importPath < dirs[j].importPath })
	return typeCheck(fset, modPath, dirs)
}

// LoadDir parses and type-checks a single directory as the package
// importPath. Intra-module imports are not resolvable in this mode —
// it exists for self-contained testdata and scratch packages.
func LoadDir(dir, importPath string) ([]*Unit, error) {
	fset := token.NewFileSet()
	pd, err := parseDir(fset, dir, importPath)
	if err != nil {
		return nil, err
	}
	if pd == nil {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	return typeCheck(fset, importPath, []*parsedDir{pd})
}

// DirSpec names one directory to load as one package of a miniature
// module.
type DirSpec struct {
	Dir        string
	ImportPath string
}

// LoadDirs parses and type-checks several directories as a miniature
// module rooted at modPath, resolving imports among them in dependency
// order. It exists for testdata trees whose packages import each other
// — e.g. the units golden, whose client package imports a stand-in
// internal/units package.
func LoadDirs(modPath string, specs []DirSpec) ([]*Unit, error) {
	fset := token.NewFileSet()
	var dirs []*parsedDir
	for _, s := range specs {
		pd, err := parseDir(fset, s.Dir, s.ImportPath)
		if err != nil {
			return nil, err
		}
		if pd == nil {
			return nil, fmt.Errorf("lint: no Go files in %s", s.Dir)
		}
		dirs = append(dirs, pd)
	}
	return typeCheck(fset, modPath, dirs)
}

// modulePath reads the module directive from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

func importPathFor(modPath, root, dir string) string {
	rel, err := filepath.Rel(root, dir)
	if err != nil || rel == "." {
		return modPath
	}
	return modPath + "/" + filepath.ToSlash(rel)
}

// parseDir parses every .go file in dir (not recursing) with comments
// attached. A directory with no Go files yields nil.
func parseDir(fset *token.FileSet, dir, importPath string) (*parsedDir, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pd := &parsedDir{importPath: importPath}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasPrefix(e.Name(), ".") || strings.HasPrefix(e.Name(), "_") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkgName := f.Name.Name
		switch {
		case strings.HasSuffix(name, "_test.go") && strings.HasSuffix(pkgName, "_test"):
			pd.extTest = append(pd.extTest, f)
		case strings.HasSuffix(name, "_test.go"):
			pd.inTest = append(pd.inTest, f)
		default:
			if pd.baseName != "" && pd.baseName != pkgName {
				return nil, fmt.Errorf("lint: %s: packages %s and %s in one directory", dir, pd.baseName, pkgName)
			}
			pd.baseName = pkgName
			pd.base = append(pd.base, f)
		}
	}
	if len(pd.base) == 0 && len(pd.inTest) == 0 && len(pd.extTest) == 0 {
		return nil, nil
	}
	return pd, nil
}

// stdImporter shares one source importer (and its private FileSet)
// across every LoadModule/LoadDir/LoadDirs call in the process: the
// standard library is parsed and type-checked once instead of per
// invocation, which is what makes repeated golden-test loads and the
// verify.sh lint fast path cheap. Std positions live in the shared
// FileSet, which is fine — findings only ever cite analyzed files.
var stdImporter = struct {
	mu  sync.Mutex
	imp types.Importer
}{}

type sharedStdImporter struct{}

func (sharedStdImporter) Import(path string) (*types.Package, error) {
	stdImporter.mu.Lock()
	defer stdImporter.mu.Unlock()
	if stdImporter.imp == nil {
		stdImporter.imp = importer.ForCompiler(token.NewFileSet(), "source", nil)
	}
	return stdImporter.imp.Import(path)
}

// moduleImporter resolves module-internal import paths from the set of
// already-checked packages and delegates everything else (the standard
// library) to the source importer.
type moduleImporter struct {
	modPath string
	local   map[string]*types.Package
	std     types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.local[path]; ok {
		return pkg, nil
	}
	if path == m.modPath || strings.HasPrefix(path, m.modPath+"/") {
		return nil, fmt.Errorf("lint: module package %s not loaded (import cycle or load order bug)", path)
	}
	return m.std.Import(path)
}

// typeCheck type-checks the parsed directories in dependency order and
// materializes the analysis units.
func typeCheck(fset *token.FileSet, modPath string, dirs []*parsedDir) ([]*Unit, error) {
	imp := &moduleImporter{
		modPath: modPath,
		local:   map[string]*types.Package{},
		std:     sharedStdImporter{},
	}

	byPath := map[string]*parsedDir{}
	for _, pd := range dirs {
		byPath[pd.importPath] = pd
	}

	// Topological order over intra-module imports of the base files.
	order := make([]*parsedDir, 0, len(dirs))
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(pd *parsedDir) error
	visit = func(pd *parsedDir) error {
		switch state[pd.importPath] {
		case 1:
			return fmt.Errorf("lint: import cycle through %s", pd.importPath)
		case 2:
			return nil
		}
		state[pd.importPath] = 1
		for _, dep := range moduleImports(pd.base, modPath) {
			if depPd, ok := byPath[dep]; ok {
				if err := visit(depPd); err != nil {
					return err
				}
			}
		}
		state[pd.importPath] = 2
		order = append(order, pd)
		return nil
	}
	for _, pd := range dirs {
		if err := visit(pd); err != nil {
			return nil, err
		}
	}

	check := func(path string, files []*ast.File, register bool) (*Unit, error) {
		if len(files) == 0 {
			return nil, nil
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
		}
		if register {
			imp.local[path] = pkg
		}
		return &Unit{ImportPath: path, Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
	}

	var units []*Unit
	// Pass 1: base packages, registered so dependents can import them.
	baseUnits := map[string]*Unit{}
	for _, pd := range order {
		u, err := check(pd.importPath, pd.base, true)
		if err != nil {
			return nil, err
		}
		if u != nil {
			baseUnits[pd.importPath] = u
			units = append(units, u)
		}
	}
	// Pass 2: test units, after every importable package exists.
	for _, pd := range order {
		if len(pd.inTest) > 0 {
			files := append(append([]*ast.File{}, pd.base...), pd.inTest...)
			u, err := check(pd.importPath, files, false)
			if err != nil {
				return nil, err
			}
			u.reportFile = func(name string) bool { return strings.HasSuffix(name, "_test.go") }
			units = append(units, u)
		}
		if len(pd.extTest) > 0 {
			u, err := check(pd.importPath+"_test", pd.extTest, false)
			if err != nil {
				return nil, err
			}
			u.ImportPath = pd.importPath // path-scoped checks see the package under test
			units = append(units, u)
		}
	}
	sort.SliceStable(units, func(i, j int) bool { return units[i].ImportPath < units[j].ImportPath })
	return units, nil
}

// moduleImports collects the intra-module import paths of files.
func moduleImports(files []*ast.File, modPath string) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range files {
		for _, spec := range f.Imports {
			path := strings.Trim(spec.Path.Value, `"`)
			if (path == modPath || strings.HasPrefix(path, modPath+"/")) && !seen[path] {
				seen[path] = true
				out = append(out, path)
			}
		}
	}
	sort.Strings(out)
	return out
}
