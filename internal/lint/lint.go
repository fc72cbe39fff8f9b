// Package lint is wpinqlint: a suite of static analyzers that
// machine-check the repository's hand-maintained invariants — the rules
// DESIGN.md states in prose and the differential tests re-prove after
// the fact. Each analyzer turns one invariant into a compile-time
// check:
//
//   - detrange: no map-iteration order observable in the
//     determinism-pinned packages (bit-reproducible seeded traces).
//   - detsource: no wall-clock or process-global randomness in those
//     same packages (plus the engine that schedules them).
//   - txnundo: every write to undo-replayed state is accompanied by
//     undo-log maintenance on the transaction-open path.
//   - poolalias: pooled difference batches (takeBatch results) must not
//     escape the synchronous flush scope.
//   - packedbounds: packed interior keys are built only from interned
//     node ids, and shift/mask constants agree with the 21-bit layout.
//   - errsink: HTTP handlers must not drop w.Write / Encoder.Encode
//     errors.
//
// Findings are suppressed with //wpinq:<verb> directives, and every
// directive must carry a reason string — a bare directive is itself a
// finding, so "reviewer remembers the rule" becomes "CI rejects the
// diff" with a written audit trail for each exception.
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis
// API shape (Analyzer, Pass, Diagnostic) on the standard library alone,
// so the repo stays dependency-free: cmd/wpinqlint speaks the `go vet
// -vettool` command-line protocol, and each unit the go command hands it
// is type-checked against gc export data.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named invariant check, mirroring
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and documentation.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the check, reporting findings through the pass.
	Run func(*Pass) error
}

// All lists every analyzer in the suite, in documentation order.
func All() []*Analyzer {
	return []*Analyzer{DetRange, DetSource, TxnUndo, PoolAlias, PackedBounds, ErrSink}
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)

	directives []Directive
	havedirs   bool
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file. The
// determinism analyzers skip test files: the invariants protect trace
// and release bytes produced by library code, while tests freely
// iterate maps to assert on them.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// pathIn reports whether package path pkg is prefix or a package below
// prefix. Test-variant paths ("wpinq/x [wpinq/x.test]") match as their
// base path.
func pathIn(pkg, prefix string) bool {
	if i := strings.Index(pkg, " ["); i >= 0 {
		pkg = pkg[:i]
	}
	return pkg == prefix || strings.HasPrefix(pkg, prefix+"/")
}

// pathInAny reports whether pkg matches any of the prefixes.
func pathInAny(pkg string, prefixes []string) bool {
	for _, pre := range prefixes {
		if pathIn(pkg, pre) {
			return true
		}
	}
	return false
}

// detPinned lists the determinism-pinned packages: the packages whose
// emission and accumulation order a seeded MCMC trace or a released
// measurement depends on. DESIGN.md "Machine-checked invariants"
// documents the set.
var detPinned = []string{
	"wpinq/internal/weighted",
	"wpinq/internal/incremental",
	"wpinq/internal/queries",
	"wpinq/internal/mcmc",
	"wpinq/internal/workload",
	"wpinq/internal/plan",
	"wpinq/internal/core",
}

// detSourcePinned additionally covers the engine, whose rounds order
// every accumulation downstream of an input. It draws no randomness and
// carries no directive.
var detSourcePinned = append([]string{"wpinq/internal/engine"}, detPinned...)

// Directive is one //wpinq:<verb> <reason> suppression comment.
type Directive struct {
	Verb   string
	Reason string
	Pos    token.Pos
	// Line is the directive comment's own line; a line directive
	// suppresses findings on this line and the next.
	Line int
	// File is the directive's filename (directives never apply across
	// files).
	File string
}

// directivePrefix introduces every suppression comment.
const directivePrefix = "//wpinq:"

// Directives returns every //wpinq: directive in the pass's files,
// parsed once and cached.
func (p *Pass) Directives() []Directive {
	if p.havedirs {
		return p.directives
	}
	p.havedirs = true
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				verb := rest
				reason := ""
				if i := strings.IndexAny(rest, " \t"); i >= 0 {
					verb, reason = rest[:i], strings.TrimSpace(rest[i+1:])
				}
				pos := p.Fset.Position(c.Pos())
				p.directives = append(p.directives, Directive{
					Verb:   verb,
					Reason: reason,
					Pos:    c.Pos(),
					Line:   pos.Line,
					File:   pos.Filename,
				})
			}
		}
	}
	return p.directives
}

// Suppressed reports whether a finding at pos is covered by a verb
// directive: one on the same line, or one on the line immediately
// above (a comment on its own line). Directives with an empty reason
// never suppress — CheckDirectiveReasons turns them into findings.
func (p *Pass) Suppressed(verb string, pos token.Pos) bool {
	fp := p.Fset.Position(pos)
	for _, d := range p.Directives() {
		if d.Verb != verb || d.Reason == "" || d.File != fp.Filename {
			continue
		}
		if d.Line == fp.Line || d.Line == fp.Line-1 {
			return true
		}
	}
	return false
}

// CheckDirectiveReasons reports every verb directive that carries no
// reason string. Each analyzer owns its verbs: a suppression without a
// written justification is itself a finding, so the audit trail cannot
// silently erode.
func (p *Pass) CheckDirectiveReasons(verbs ...string) {
	for _, d := range p.Directives() {
		for _, v := range verbs {
			if d.Verb == v && d.Reason == "" {
				p.Reportf(d.Pos, "//wpinq:%s directive requires a reason string", v)
			}
		}
	}
}

// FuncDirective returns the verb directive attached to fn's doc
// comment, if any. Function-level directives exempt a whole
// declaration (e.g. the packed-key kernel constructors).
func (p *Pass) FuncDirective(fn *ast.FuncDecl, verb string) (Directive, bool) {
	if fn.Doc == nil {
		return Directive{}, false
	}
	for _, d := range p.Directives() {
		if d.Verb != verb {
			continue
		}
		if d.Pos >= fn.Doc.Pos() && d.Pos <= fn.Doc.End() {
			return d, true
		}
	}
	return Directive{}, false
}
