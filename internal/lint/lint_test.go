package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// tool is the wpinqlint binary, built once for the whole test binary:
// every test below drives the analyzers the way CI and a developer do,
// through `go vet -vettool`.
var tool string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "wpinqlint")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tool = filepath.Join(dir, "wpinqlint")
	if out, err := exec.Command("go", "build", "-o", tool, "wpinq/cmd/wpinqlint").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building wpinqlint: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// finding is one `file:line:col: analyzer: message` line of the tool's
// stderr, file relative to the testdata module.
type finding struct {
	file     string
	line     int
	analyzer string
	message  string
}

var findingRe = regexp.MustCompile(`^(.+\.go):(\d+):\d+: (\w+): (.*)$`)

// fixtureFindings runs the tool once over the testdata module (whose
// module path is also "wpinq", so fixture import paths land in the
// analyzers' pinned-package prefixes) and returns everything it printed.
var fixtureFindings = sync.OnceValues(func() ([]finding, error) {
	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = "testdata"
	out, _ := vet.CombinedOutput() // exits 1: the fixtures have findings
	var fs []finding
	for _, line := range strings.Split(string(out), "\n") {
		if m := findingRe.FindStringSubmatch(line); m != nil {
			n, _ := strconv.Atoi(m[2])
			fs = append(fs, finding{file: filepath.Clean(m[1]), line: n, analyzer: m[3], message: m[4]})
		} else if line != "" && !strings.HasPrefix(line, "#") {
			return nil, fmt.Errorf("go vet -vettool over testdata printed %q:\n%s", line, out)
		}
	}
	return fs, nil
})

// wantRe extracts the expectation from a `// want `+"`regex`"+“ comment.
var wantRe = regexp.MustCompile("// want `([^`]*)`")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
}

// parseWants collects every // want expectation in the fixture
// directory dir (relative to testdata), keyed to the comment's line.
func parseWants(t *testing.T, dir string) []expectation {
	t.Helper()
	names, err := filepath.Glob(filepath.Join("testdata", dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no fixture sources in %s (%v)", dir, err)
	}
	var wants []expectation
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, text := range strings.Split(string(src), "\n") {
			m := wantRe.FindStringSubmatch(text)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("bad want regexp %q: %v", m[1], err)
			}
			wants = append(wants, expectation{file: filepath.Join(dir, filepath.Base(name)), line: i + 1, re: re})
		}
	}
	return wants
}

// bareFixture holds only reasonless directives; its findings belong to
// TestBareDirectivesAreFindings.
const bareFixture = "internal/incremental/barefix"

// runFixture matches one analyzer's findings over the whole module
// against the // want comments of its fixture directory, both ways:
// every want must be hit, and every finding must be wanted.
func runFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	all, err := fixtureFindings()
	if err != nil {
		t.Fatal(err)
	}
	wants := parseWants(t, dir)
	matched := make([]bool, len(wants))
outer:
	for _, d := range all {
		if d.analyzer != a.Name || filepath.Dir(d.file) == bareFixture {
			continue
		}
		for i, w := range wants {
			if !matched[i] && w.file == d.file && w.line == d.line && w.re.MatchString(d.message) {
				matched[i] = true
				continue outer
			}
		}
		t.Errorf("unexpected finding: %s:%d: %s: %s", d.file, d.line, d.analyzer, d.message)
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected finding matching %q, got none", filepath.Base(w.file), w.line, w.re)
		}
	}
}

func TestDetRangeFixture(t *testing.T) {
	runFixture(t, DetRange, "internal/incremental/detrangefix")
}

func TestDetSourceFixture(t *testing.T) {
	runFixture(t, DetSource, "internal/incremental/detsourcefix")
}

func TestTxnUndoFixture(t *testing.T) {
	runFixture(t, TxnUndo, "internal/incremental/txnfix")
}

func TestPoolAliasFixture(t *testing.T) {
	runFixture(t, PoolAlias, "internal/incremental/poolfix")
}

func TestPackedBoundsFixture(t *testing.T) {
	runFixture(t, PackedBounds, "internal/queries/packedfix")
}

func TestErrSinkFixture(t *testing.T) {
	runFixture(t, ErrSink, "internal/service/errfix")
}

// TestBareDirectivesAreFindings pins the self-enforcing suppression
// rule: a //wpinq: directive with no reason string is itself reported
// by the analyzer that owns the verb.
func TestBareDirectivesAreFindings(t *testing.T) {
	all, err := fixtureFindings()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		a    *Analyzer
		verb string
	}{
		{DetRange, "nondeterministic-ok"},
		{TxnUndo, "txn-exempt"},
		{PoolAlias, "alias-ok"},
	} {
		found := false
		for _, d := range all {
			if filepath.Dir(d.file) == bareFixture && d.analyzer == tc.a.Name &&
				strings.Contains(d.message, tc.verb) && strings.Contains(d.message, "requires a reason") {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: bare //wpinq:%s directive not reported (got %v)", tc.a.Name, tc.verb, all)
		}
	}
}

// TestDirectiveParsing pins the verb/reason split of a parsed directive.
func TestDirectiveParsing(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "testdata/internal/incremental/poolfix/poolfix.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pass := &Pass{Analyzer: PoolAlias, Fset: fset, Files: []*ast.File{f}}
	var dirs []Directive
	for _, d := range pass.Directives() {
		if d.Verb == "alias-ok" {
			dirs = append(dirs, d)
		}
	}
	if len(dirs) != 1 {
		t.Fatalf("got %d alias-ok directives, want 1", len(dirs))
	}
	if dirs[0].Reason == "" {
		t.Errorf("directive reason not parsed: %+v", dirs[0])
	}
}

// TestFuncBodyHelper covers the shared declaration/literal dispatch.
func TestFuncBodyHelper(t *testing.T) {
	if _, ok := funcBody(&ast.FuncDecl{}); ok {
		t.Error("funcBody accepted a bodyless declaration")
	}
	if _, ok := funcBody(&ast.BadExpr{}); ok {
		t.Error("funcBody accepted a non-function node")
	}
}

// repoRoot locates the enclosing module root (the repository).
func repoRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	return strings.TrimSpace(string(out))
}

// TestRepoIsLintClean is the suite's self-check: the repository at HEAD
// produces zero findings through the real `go vet -vettool` protocol,
// so every invariant violation in this PR's history was either fixed or
// carries a reasoned directive.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide vet in -short mode")
	}
	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = repoRoot(t)
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool reported findings:\n%s", out)
	}
}

// TestVetProtocolProbes pins the two command-line probes the go command
// sends before trusting a vettool.
func TestVetProtocolProbes(t *testing.T) {
	version, err := exec.Command(tool, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	fields := strings.Fields(string(version))
	if len(fields) < 3 || fields[1] != "version" || !strings.HasPrefix(fields[len(fields)-1], "buildID=") {
		t.Errorf("-V=full output not in tool-ID form: %q", version)
	}
	flags, err := exec.Command(tool, "-flags").Output()
	if err != nil {
		t.Fatalf("-flags: %v", err)
	}
	if strings.TrimSpace(string(flags)) != "[]" {
		t.Errorf("-flags = %q, want []", flags)
	}
}

// TestDiagnosticSorting pins the position ordering of reported
// findings.
func TestDiagnosticSorting(t *testing.T) {
	mk := func(file string, line, col int, a string) Diagnostic {
		d := Diagnostic{Analyzer: a, Message: "m"}
		d.Pos.Filename, d.Pos.Line, d.Pos.Column = file, line, col
		return d
	}
	ds := []Diagnostic{
		mk("b.go", 1, 1, "x"),
		mk("a.go", 9, 1, "x"),
		mk("a.go", 2, 5, "z"),
		mk("a.go", 2, 5, "y"),
		mk("a.go", 2, 1, "x"),
	}
	sortDiagnostics(ds)
	var got []string
	for _, d := range ds {
		got = append(got, fmt.Sprintf("%s:%d:%d:%s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer))
	}
	want := []string{"a.go:2:1:x", "a.go:2:5:y", "a.go:2:5:z", "a.go:9:1:x", "b.go:1:1:x"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted order %v, want %v", got, want)
		}
	}
}
