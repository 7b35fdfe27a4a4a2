package main

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fixtureRoot reuses the analysis package's self-contained fixture
// module as a working directory: the driver walks up to its go.mod and
// treats it as module "fixture".
func fixtureRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../../internal/analysis/testdata/src/fixture")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// runIn invokes the driver body the way main does, from dir.
func runIn(t *testing.T, dir string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw strings.Builder
	code = run(args, dir, &out, &errw)
	return code, out.String(), errw.String()
}

// TestFaultPackageNotWallClockAllowed pins the determinism review the
// fault subsystem rests on: internal/fault (and internal/core, which
// consumes it) must stay OUT of the wall-clock allowlist — a fault
// schedule is virtual-time data, and the moment either package reads the
// real clock, schedules stop being reproducible.
func TestFaultPackageNotWallClockAllowed(t *testing.T) {
	const module = "wayfinder"
	allowed := map[string]bool{}
	for _, pkg := range walltimeAllowlist(module) {
		allowed[pkg] = true
	}
	for _, banned := range []string{module + "/internal/fault", module + "/internal/core"} {
		if allowed[banned] {
			t.Fatalf("%s is on the wall-clock allowlist; fault schedules must stay in virtual time", banned)
		}
	}
	if !allowed[module+"/internal/vm"] {
		t.Fatal("the virtual-clock package itself should remain allowlisted")
	}
}

// TestCorpusPackageNotWallClockAllowed pins the tuning-memory contract:
// internal/corpus must stay OUT of the wall-clock allowlist. Corpus
// entries are content-addressed and index queries are pure functions —
// a timestamp anywhere in the store would change digests across runs
// and break frozen-corpus reproducibility.
func TestCorpusPackageNotWallClockAllowed(t *testing.T) {
	const module = "wayfinder"
	for _, pkg := range walltimeAllowlist(module) {
		if pkg == module+"/internal/corpus" {
			t.Fatalf("%s is on the wall-clock allowlist; corpus entries must stay content-addressed and time-free", pkg)
		}
	}
}

func TestExitCodeClean(t *testing.T) {
	code, stdout, stderr := runIn(t, fixtureRoot(t), "./internal/rng")
	if code != 0 {
		t.Fatalf("exit %d on clean package, want 0; stderr: %s", code, stderr)
	}
	if stdout != "" || stderr != "" {
		t.Errorf("clean run produced output: stdout=%q stderr=%q", stdout, stderr)
	}
}

func TestExitCodeFindings(t *testing.T) {
	code, stdout, stderr := runIn(t, fixtureRoot(t), "./feq")
	if code != 1 {
		t.Fatalf("exit %d on package with findings, want 1; stderr: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d findings, want 2:\n%s", len(lines), stdout)
	}
	// file:line:col: [analyzer] message, with the file relative to cwd.
	format := regexp.MustCompile(`^feq/feq\.go:\d+:\d+: \[floateq\] .+$`)
	for _, line := range lines {
		if !format.MatchString(filepath.ToSlash(line)) {
			t.Errorf("finding line does not match the stable format: %q", line)
		}
	}
	if want := "wfvet: 2 finding(s)\n"; stderr != want {
		t.Errorf("stderr = %q, want %q", stderr, want)
	}
}

func TestExitCodeUsageError(t *testing.T) {
	code, _, stderr := runIn(t, fixtureRoot(t), "./nosuchdir")
	if code != 2 {
		t.Fatalf("exit %d on missing directory, want 2", code)
	}
	if !strings.HasPrefix(stderr, "wfvet:") {
		t.Errorf("stderr = %q, want a wfvet: error", stderr)
	}
}

// TestRecursiveDeterministic runs ./... twice over the fixture module
// and demands byte-identical, sorted output.
func TestRecursiveDeterministic(t *testing.T) {
	root := fixtureRoot(t)
	code1, out1, _ := runIn(t, root, "./...")
	code2, out2, _ := runIn(t, root, "./...")
	if code1 != 1 || code2 != 1 {
		t.Fatalf("exit codes %d, %d; want 1, 1", code1, code2)
	}
	if out1 != out2 {
		t.Errorf("two runs diverged:\n%s\nvs:\n%s", out1, out2)
	}
	// Findings are grouped by file in ascending position order — the
	// numeric (file, line, col) sort, not a lexicographic one.
	files := strings.Split(strings.TrimSuffix(out1, "\n"), "\n")
	for i := range files {
		files[i] = files[i][:strings.Index(files[i], ":")]
	}
	if !sort.StringsAreSorted(files) {
		t.Errorf("output not grouped by sorted file:\n%s", out1)
	}
}

// TestDefaultPatternIsRecursive checks that no arguments means ./...
func TestDefaultPatternIsRecursive(t *testing.T) {
	root := fixtureRoot(t)
	_, explicit, _ := runIn(t, root, "./...")
	_, implicit, _ := runIn(t, root)
	if explicit != implicit {
		t.Errorf("default run differs from ./...:\n%s\nvs:\n%s", implicit, explicit)
	}
}

// TestRecursiveStopsAtNestedModule: ./... covers the module it starts in
// and no module nested below it, as go's own ./... does — a directory
// holding its own go.mod is a different module with its own rules.
func TestRecursiveStopsAtNestedModule(t *testing.T) {
	root := t.TempDir()
	files := [][2]string{
		{"go.mod", "module outer\n"},
		{"a/a.go", "package a\n"},
		{"inner/go.mod", "module inner\n"},
		{"inner/b/b.go", "package b\n"},
		{"inner/inner.go", "package inner\n"},
		{"c/notmod/c.go", "package notmod\n"},
		{"c/notmod/go.mod.x", "not a module file\n"},
	}
	for _, f := range files {
		name, body := f[0], f[1]
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dirs, err := expand(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dirs {
		rel, _ := filepath.Rel(root, d)
		got = append(got, filepath.ToSlash(rel))
	}
	if want := []string{"a", "c/notmod"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("./... expanded to %v, want %v", got, want)
	}
	// Naming the nested module's directory explicitly still reaches it.
	dirs, err = expand(root, []string{"./inner/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 2 {
		t.Errorf("./inner/... expanded to %v, want the inner module's two packages", dirs)
	}
}
