package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("spandex/internal/core").
	Path string
	// Dir is the package directory on disk.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	dirs *directiveSet // parsed on first use; see Directives
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	Standard   bool
	Error      *struct{ Err string }
}

// Load resolves patterns (e.g. "./...") with `go list` from dir, then
// parses and type-checks every matched non-test file. Dependencies —
// including the standard library — are type-checked from source via the
// compiler-independent "source" importer, so the loader needs no export
// data, no module download and no network: everything it touches is the
// local tree plus GOROOT.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var pkgs []*Package
	for _, lp := range listed {
		pkg, err := check(fset, imp, lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// goList shells out to the go tool for pattern resolution (the one part of
// package loading the standard library does not expose).
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var listed []listedPackage
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		listed = append(listed, lp)
	}
	return listed, nil
}

// check parses and type-checks one package.
func check(fset *token.FileSet, imp types.Importer, path, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// NewInfo allocates a types.Info with every map analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
