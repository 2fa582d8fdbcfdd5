// Command mmvet runs the repo's determinism analyzers (maprange,
// wallclock, globalrand, gorphan, units — see internal/lint) over the
// module.
//
// Usage:
//
//	go run ./cmd/mmvet ./...            all packages of the enclosing module
//	go run ./cmd/mmvet DIR [DIR...]     specific directories, self-contained
//
// mmvet has no flags and no baseline: every finding, including a
// malformed //mmvet: annotation, is printed and fails the run.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mmlab/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: mmvet ./... | DIR [DIR...]")
		return 2
	}

	var units []*lint.Unit
	var root string
	for _, arg := range args {
		var us []*lint.Unit
		var err error
		if arg == "./..." || arg == "..." {
			if root, err = moduleRoot("."); err == nil {
				us, err = lint.LoadModule(root)
			}
		} else {
			dir := strings.TrimSuffix(arg, "/...")
			us, err = lint.LoadDir(dir, filepath.ToSlash(filepath.Clean(dir)))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "mmvet:", err)
			return 2
		}
		units = append(units, us...)
	}

	findings := lint.Analyze(units)
	for _, f := range findings {
		fmt.Println(rel(root, f))
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "mmvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// rel renders a finding with the path relative to root for stable,
// readable output.
func rel(root string, f lint.Finding) string {
	if root != "" {
		if r, err := filepath.Rel(root, f.Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
			f.Pos.Filename = r
		}
	}
	return f.String()
}

// moduleRoot walks up from dir to the nearest go.mod.
func moduleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		d = parent
	}
}
