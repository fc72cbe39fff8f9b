package lint

import (
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"slices"
	"strings"
)

// This file implements the `go vet -vettool` command-line protocol on
// the standard library, mirroring golang.org/x/tools/go/analysis/
// unitchecker: the go command probes the tool with -V=full (build ID)
// and -flags (supported flags, JSON), then invokes it once per package
// with the path of a JSON config file ("vet.cfg") describing the
// package's sources and its dependencies' export data. The tool
// type-checks the unit, runs its analyzers, writes an (empty) facts
// file to VetxOutput, and exits 2 when it reported findings.

// vetConfig matches the JSON written by cmd/go's buildVetConfig.
type vetConfig struct {
	ID         string
	Compiler   string
	Dir        string
	ImportPath string
	GoVersion  string
	GoFiles    []string

	ImportMap   map[string]string
	PackageFile map[string]string
	PackageVetx map[string]string
	VetxOnly    bool
	VetxOutput  string

	SucceedOnTypecheckFailure bool
}

// Main is the entry point for cmd/wpinqlint, a `go vet -vettool`:
//
//	wpinqlint -V=full          # print tool build ID (go vet protocol)
//	wpinqlint -flags           # print supported flags, JSON (go vet protocol)
//	wpinqlint path/to/vet.cfg  # analyze one unit (go vet protocol)
//	wpinqlint help             # list the analyzers
//
// The go command does the loading — it lists the packages, compiles their
// dependencies and hands over one unit at a time — so anything else on
// the command line gets the usage text and exit status 2. A unit with
// findings exits 2 as well, matching unitchecker.
func Main(analyzers []*Analyzer) {
	args := os.Args[1:]
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full" || args[0] == "--V=full":
			printVersion()
			return
		case args[0] == "-flags" || args[0] == "--flags":
			// No tool-specific flags: every analyzer always runs.
			fmt.Println("[]")
			return
		case args[0] == "help" || args[0] == "-h" || args[0] == "--help":
			printUsage(os.Stdout, analyzers)
			return
		case strings.HasSuffix(args[0], ".cfg"):
			os.Exit(unitCheck(args[0], analyzers))
		}
	}
	printUsage(os.Stderr, analyzers)
	os.Exit(2)
}

func printUsage(w io.Writer, analyzers []*Analyzer) {
	fmt.Fprintln(w, "wpinqlint checks wpinq's hand-maintained invariants.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Usage: go build -o bin/wpinqlint ./cmd/wpinqlint")
	fmt.Fprintln(w, "       go vet -vettool=bin/wpinqlint ./...")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Registered analyzers:")
	for _, a := range analyzers {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		fmt.Fprintf(w, "  %-12s %s\n", a.Name, doc)
	}
}

// printVersion emits the -V=full line the go command's tool-ID probe
// expects: content-addressed by the executable so editing an analyzer
// invalidates vet's result cache.
func printVersion() {
	progname := "wpinqlint"
	sum := [sha256.Size]byte{}
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			sum = sha256.Sum256(data)
		}
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, sum)
}

// unitCheck analyzes one vet unit described by the config file.
func unitCheck(cfgPath string, analyzers []*Analyzer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wpinqlint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "wpinqlint: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	// The go command caches and reuses facts files; we compute no
	// facts, but the (empty) output must exist.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "wpinqlint: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		af, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(os.Stderr, "wpinqlint: %v\n", err)
			return 1
		}
		files = append(files, af)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		e, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(e)
	}
	// Analyzers still run on a unit with type errors, on whatever type
	// information the checker recovered — go vet's behavior for code that
	// is mid-edit — unless the go command asked for silence instead.
	conf := types.Config{
		Importer:  importer.ForCompiler(fset, "gc", lookup),
		GoVersion: cfg.GoVersion,
		Error:     func(error) {},
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	// A test variant's import path is "p [p.test]"; its package is p.
	path, _, _ := strings.Cut(cfg.ImportPath, " [")
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil && cfg.SucceedOnTypecheckFailure {
		return 0
	}

	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			report:   func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			fmt.Fprintf(os.Stderr, "wpinqlint: %s: %s: %v\n", cfg.ImportPath, a.Name, err)
			return 1
		}
	}
	sortDiagnostics(diags)
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s\n", d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// sortDiagnostics orders findings by file, line, column, then analyzer.
func sortDiagnostics(ds []Diagnostic) {
	slices.SortFunc(ds, func(a, b Diagnostic) int {
		return cmp.Or(
			cmp.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			cmp.Compare(a.Analyzer, b.Analyzer),
		)
	})
}
