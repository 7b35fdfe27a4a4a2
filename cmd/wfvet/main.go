// Command wfvet runs the determinism-invariant analyzer suite over this
// module. Usage:
//
//	wfvet [packages]
//
// where packages are directory patterns relative to the working
// directory ("./...", "./internal/core", "internal/..."; default
// "./..."). Every package unit — including in-package and external test
// files — is parsed and type-checked from source (stdlib only: go/parser
// + go/types via the source importer), then checked by every analyzer:
//
//	walltime    wall-clock reads outside the allowlist
//	globalrand  math/rand instead of internal/rng
//	maprange    map iteration feeding order-sensitive sinks
//	floateq     exact ==/!= on floats outside tests
//
// Deliberate violations are annotated in source with
// //wfvet:ignore <analyzer> <reason>. Exit status: 0 clean, 1 findings,
// 2 load/usage errors. CI runs `make vet-wf`, which is this command over
// ./... — a finding is a red build.
package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"wayfinder/internal/analysis"
	"wayfinder/internal/analysis/floateq"
	"wayfinder/internal/analysis/globalrand"
	"wayfinder/internal/analysis/maprange"
	"wayfinder/internal/analysis/walltime"
)

func main() {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wfvet:", err)
		os.Exit(2)
	}
	os.Exit(run(os.Args[1:], cwd, os.Stdout, os.Stderr))
}

// walltimeAllowlist is the reviewed set of packages whose whole business
// is real time; everything else must use the virtual clock or carry a
// per-site pragma. Notably absent: internal/fault and internal/core —
// fault schedules and the sessions they drive live entirely in virtual
// time (pinned by test).
func walltimeAllowlist(module string) []string {
	return []string{
		// The virtual-clock home: the package that defines what time means
		// for sessions is allowed to touch the real one.
		module + "/internal/vm",
		// The daemon serves real clients: I/O deadlines, journal
		// timestamps, uptime accounting.
		module + "/internal/wfd",
		module + "/cmd/wfd",
		// The benchmark harnesses measure real ns/op by design.
		module + "/internal/experiments",
		module + "/cmd/wfbench",
	}
}

// analyzers assembles the suite with the repository's wall-clock
// allowlist.
func analyzers(module string) []*analysis.Analyzer {
	return []*analysis.Analyzer{
		walltime.New(walltimeAllowlist(module)),
		globalrand.New([]string{"internal/rng"}),
		maprange.New(),
		floateq.New(),
	}
}

// run is the testable driver body.
func run(args []string, cwd string, stdout, stderr io.Writer) int {
	patterns := args
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "wfvet:", err)
		return 2
	}
	dirs, err := expand(cwd, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "wfvet:", err)
		return 2
	}
	var pkgs []*analysis.Package
	for _, dir := range dirs {
		units, err := loader.LoadDir(dir)
		if err != nil {
			fmt.Fprintln(stderr, "wfvet:", err)
			return 2
		}
		pkgs = append(pkgs, units...)
	}
	findings := analysis.Run(pkgs, analyzers(loader.Module))
	for _, f := range findings {
		f.Pos.Filename = relativize(cwd, f.Pos.Filename)
		fmt.Fprintln(stdout, f.String())
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "wfvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// expand resolves directory patterns. A trailing "/..." walks the
// subtree; anything else names one directory. Directories named
// testdata or vendor, and hidden or underscore-prefixed ones, are
// skipped during walks — testdata holds the analyzers' deliberately-
// violating fixtures — and so is any directory below the walk root that
// holds its own go.mod: a nested module is another module, which go's
// own ./... does not enter either. Only directories containing .go files
// are returned, sorted and deduplicated.
func expand(cwd string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(dir string) error {
		if seen[dir] {
			return nil
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				seen[dir] = true
				out = append(out, dir)
				return nil
			}
		}
		return nil
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
		} else if pat == "..." {
			recursive = true
			pat = "."
		}
		root := pat
		if !filepath.IsAbs(root) {
			root = filepath.Join(cwd, root)
		}
		info, err := os.Stat(root)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("%s is not a directory", pat)
		}
		if !recursive {
			if err := add(root); err != nil {
				return nil, err
			}
			continue
		}
		err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return fs.SkipDir
			}
			if path != root {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return fs.SkipDir
				}
			}
			return add(path)
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

// relativize renders a path relative to the working directory when it is
// inside it, matching go vet's output convention.
func relativize(cwd, path string) string {
	if rel, err := filepath.Rel(cwd, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
