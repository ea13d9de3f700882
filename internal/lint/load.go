// Package lint is the repository's custom static-analysis driver: a
// stdlib-only reimplementation of the load/typecheck/analyze pipeline
// (no golang.org/x/tools — the module has zero dependencies and the
// builder may be offline). Packages are enumerated by shelling out to
// `go list -export -json -deps`, which also compiles export data for
// every dependency; imports are resolved by feeding those export files
// to importer.ForCompiler("gc", lookup); the analyzed packages
// themselves are parsed from source and type-checked with go/types.
//
// The analyzers (lockfree, publish, poolpair, errwrap)
// mechanically enforce the engine contracts that PRs 2–8 established by
// convention and review; see the package documentation in wavedag.go
// ("Static analysis & invariants") for the contract statements and the
// //wavedag: directive syntax.
package lint

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
	"os"
	"os/exec"
	"path/filepath"
)

// listPackage is the subset of `go list -json` output the loader
// consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
	DepOnly    bool
}

// Package is one type-checked package of the analyzed module.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// exportLookup resolves import paths to gc export-data files produced
// by `go list -export`. It satisfies the lookup signature of
// importer.ForCompiler.
type exportLookup map[string]string

func (m exportLookup) open(path string) (io.ReadCloser, error) {
	file, ok := m[path]
	if !ok || file == "" {
		return nil, fmt.Errorf("lint: no export data for %q", path)
	}
	return os.Open(file)
}

// unsafeAwareImporter wraps the gc importer so that the special package
// unsafe (which has no export file) resolves to types.Unsafe.
type unsafeAwareImporter struct{ inner types.ImporterFrom }

func (u unsafeAwareImporter) Import(path string) (*types.Package, error) {
	return u.ImportFrom(path, "", 0)
}

func (u unsafeAwareImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return u.inner.ImportFrom(path, dir, mode)
}

// Load enumerates the packages matching patterns (relative to dir),
// parses and type-checks every non-standard-library one, and returns
// the indexed Corpus the analyzers run over. Standard-library
// dependencies are loaded from export data only.
func Load(dir string, patterns ...string) (*Corpus, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-export", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list failed: %v\n%s", err, errBuf.String())
	}

	var targets []*listPackage
	exports := exportLookup{}
	dec := json.NewDecoder(&out)
	for {
		lp := new(listPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if !lp.Standard {
			targets = append(targets, lp)
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("lint: no packages matched %v", patterns)
	}

	fset := token.NewFileSet()
	imp := unsafeAwareImporter{
		inner: importer.ForCompiler(fset, "gc", exports.open).(types.ImporterFrom),
	}
	c := newCorpus(fset)
	for _, lp := range targets {
		pkg, err := check(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		c.Packages = append(c.Packages, pkg)
		c.modulePaths[lp.ImportPath] = true
	}
	c.index()
	return c, nil
}

// check parses and type-checks one module package from source.
func check(fset *token.FileSet, imp types.ImporterFrom, lp *listPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", lp.ImportPath, err)
	}
	return &Package{
		ImportPath: lp.ImportPath,
		Dir:        lp.Dir,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}
