package analysis

import (
	"errors"
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
)

// Unit is one type-checked analysis unit: a base package, its in-package
// test extension, or an external _test package.
type Unit struct {
	// Path is the unit's import path (suffixed "_test" for external test
	// packages).
	Path string
	// Dir is the source directory.
	Dir string
	// Files are the files analyzers may report diagnostics against. For the
	// in-package test unit this is just the _test.go files: the base files
	// were already covered by the base unit.
	Files []*ast.File
	// Test marks units containing _test.go files.
	Test bool

	Fset       *token.FileSet
	Pkg        *types.Package
	Info       *types.Info
	ModulePath string
}

// Loader type-checks the module's packages from source on demand: the
// analyzers need their ASTs and types.Info. Standard-library imports resolve
// through go/importer's gc importer, which reads the compiled export data the
// go command keeps in its build cache (it runs `go list -export` once per
// package), so no standard-library source is parsed or type-checked.
//
// LoadAll parses and type-checks serially in sorted directory order, so the
// unit list — and therefore every diagnostic — is deterministic.
type Loader struct {
	Root       string // module root directory (holds go.mod)
	ModulePath string
	Fset       *token.FileSet

	std  types.Importer
	base map[string]*Unit // import path -> checked base unit
	busy map[string]bool  // import-cycle guard

	parsed map[string]parsedDir // dir -> parse results
}

// parsedDir caches one directory's parsed files, split non-test/test.
type parsedDir struct {
	base, tests []*ast.File
}

// NewLoader returns a loader for the module rooted at dir.
func NewLoader(root string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:       root,
		ModulePath: modPath,
		Fset:       fset,
		std:        importer.ForCompiler(fset, "gc", nil),
		base:       make(map[string]*Unit),
		busy:       make(map[string]bool),
		parsed:     make(map[string]parsedDir),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: read module file: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Import implements types.Importer: module packages are type-checked from
// source (and cached); everything else falls through to the standard-library
// export-data importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		u, err := l.loadBase(path)
		if err != nil {
			return nil, err
		}
		return u.Pkg, nil
	}
	return l.std.Import(path)
}

// dirFor maps a module import path to its source directory.
func (l *Loader) dirFor(path string) string {
	if path == l.ModulePath {
		return l.Root
	}
	rel := strings.TrimPrefix(path, l.ModulePath+"/")
	return filepath.Join(l.Root, filepath.FromSlash(rel))
}

// loadBase type-checks (once) the non-test files of a module package.
func (l *Loader) loadBase(path string) (*Unit, error) {
	if u, ok := l.base[path]; ok {
		return u, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	dir := l.dirFor(path)
	files, _, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no non-test Go files in %s", dir)
	}
	u, err := l.check(path, dir, files, files, false)
	if err != nil {
		return nil, err
	}
	l.base[path] = u
	return u, nil
}

// parseDir parses a directory's Go files, split into non-test and test
// files. Results are cached: LoadAll and loadBase both read a directory, and
// an imported package is parsed before LoadAll reaches its directory.
func (l *Loader) parseDir(dir string) (base, tests []*ast.File, err error) {
	if p, ok := l.parsed[dir]; ok {
		return p.base, p.tests, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: read dir: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, fmt.Errorf("analysis: parse: %w", err)
		}
		if strings.HasSuffix(name, "_test.go") {
			tests = append(tests, f)
		} else {
			base = append(base, f)
		}
	}
	l.parsed[dir] = parsedDir{base: base, tests: tests}
	return base, tests, nil
}

// check type-checks one unit. reportFiles are the files the unit exposes for
// diagnostics; allFiles is the full file set handed to the type checker.
func (l *Loader) check(path, dir string, reportFiles, allFiles []*ast.File, test bool) (*Unit, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var errs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, _ := conf.Check(path, l.Fset, allFiles, info)
	if len(errs) > 0 {
		const maxShown = 10
		if len(errs) > maxShown {
			errs = append(errs[:maxShown], fmt.Errorf("analysis: ... and %d more errors", len(errs)-maxShown))
		}
		return nil, fmt.Errorf("analysis: type-check %s: %w", path, errors.Join(errs...))
	}
	return &Unit{
		Path:       path,
		Dir:        dir,
		Files:      reportFiles,
		Test:       test,
		Fset:       l.Fset,
		Pkg:        pkg,
		Info:       info,
		ModulePath: l.ModulePath,
	}, nil
}

// CheckFiles parses and type-checks an ad-hoc unit (used by fixture tests).
// The unit is registered under path so later units may import it.
func (l *Loader) CheckFiles(path string, filenames []string, test bool) (*Unit, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse: %w", err)
		}
		files = append(files, f)
	}
	u, err := l.check(path, filepath.Dir(filenames[0]), files, files, test)
	if err != nil {
		return nil, err
	}
	l.base[path] = u
	return u, nil
}

// LoadAll discovers and type-checks every package of the module, returning
// one unit per (package, test extension, external test package) in a stable
// order. Directories named testdata and hidden directories are skipped.
func (l *Loader) LoadAll() ([]*Unit, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.Root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		matches, err := filepath.Glob(filepath.Join(p, "*.go"))
		if err != nil {
			return err
		}
		if len(matches) > 0 {
			dirs = append(dirs, p)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: walk module: %w", err)
	}
	sort.Strings(dirs)

	var units []*Unit
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil {
			return nil, fmt.Errorf("analysis: walk module: %w", err)
		}
		path := l.ModulePath
		if rel != "." {
			path = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		base, tests, err := l.parseDir(dir)
		if err != nil {
			return nil, err
		}
		var baseUnit *Unit
		if len(base) > 0 {
			baseUnit, err = l.loadBase(path)
			if err != nil {
				return nil, err
			}
			units = append(units, baseUnit)
		}
		// Split test files: in-package extensions check together with the
		// base files; external test packages check on their own.
		var inPkg, external []*ast.File
		for _, f := range tests {
			if strings.HasSuffix(f.Name.Name, "_test") {
				external = append(external, f)
			} else {
				inPkg = append(inPkg, f)
			}
		}
		if len(inPkg) > 0 {
			all := append(append([]*ast.File(nil), base...), inPkg...)
			u, err := l.check(path, dir, inPkg, all, true)
			if err != nil {
				return nil, err
			}
			units = append(units, u)
		}
		if len(external) > 0 {
			u, err := l.check(path+"_test", dir, external, external, true)
			if err != nil {
				return nil, err
			}
			units = append(units, u)
		}
	}
	return units, nil
}
