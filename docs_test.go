package steerq_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// historicalNames are the exported names the documents mention on purpose
// although no code declares them any more.
var historicalNames = map[string]bool{
	"FootprintClasses": true, // DESIGN.md names the deleted API it replaced
}

// decls is what the module's non-test Go files declare.
type decls struct {
	pkgs    map[string]map[string]bool // package name → top-level names
	members map[string]map[string]bool // type name → methods and fields
	names   map[string]bool            // every declared identifier
}

// moduleDecls parses every .go file under the repository root — the
// benchmark module included, testdata, hidden and build directories
// excluded — and collects the declarations of its non-test files, plus the
// test, benchmark and fuzz functions of its test files: the documents cite
// those by name too. A method counts as a member of its type and of its
// package (`xrand.Derive`).
func moduleDecls(t *testing.T) decls {
	t.Helper()
	d := decls{pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{}, names: map[string]bool{}}
	member := func(typ, name string) {
		if d.members[typ] == nil {
			d.members[typ] = map[string]bool{}
		}
		d.members[typ][name] = true
		d.names[name] = true
	}
	fields := func(typ string, fl *ast.FieldList) {
		for _, f := range fl.List {
			for _, n := range f.Names {
				member(typ, n.Name)
			}
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(f.Name.Name, "_test")
		pkg := d.pkgs[name]
		if pkg == nil {
			pkg = map[string]bool{}
			d.pkgs[name] = pkg
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testFunc.MatchString(fn.Name.Name) {
					pkg[fn.Name.Name] = true
					d.names[fn.Name.Name] = true
				}
			}
			return nil
		}
		top := func(name string) {
			pkg[name] = true
			d.names[name] = true
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					top(decl.Name.Name)
					continue
				}
				recv := decl.Recv.List[0].Type
				for {
					switch r := recv.(type) {
					case *ast.StarExpr:
						recv = r.X
						continue
					case *ast.IndexExpr:
						recv = r.X
						continue
					case *ast.IndexListExpr:
						recv = r.X
						continue
					}
					break
				}
				if id, ok := recv.(*ast.Ident); ok {
					member(id.Name, decl.Name.Name)
					pkg[decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						top(spec.Name.Name)
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields(spec.Name.Name, typ.Fields)
						case *ast.InterfaceType:
							fields(spec.Name.Name, typ.Methods)
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							top(n.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

var (
	testFunc   = regexp.MustCompile(`^(Test|Benchmark|Fuzz|Example)`)
	backticked = regexp.MustCompile("`([^`\n]+)`")
	// goName is a span naming a Go identifier, optionally qualified and
	// optionally called: Name, pkg.Name, Type.Method, pkg.Type.Method.
	goName = regexp.MustCompile(`^([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*){0,2})(?:\(.*\))?$`)
)

func exported(s string) bool { return unicode.IsUpper([]rune(s)[0]) }

// envLike reports an environment-variable spelling (STEERQ_WORKERS, GOGC).
func envLike(s string) bool { return strings.ToUpper(s) == s }

// undeclared returns why the name a backticked span gives is not declared
// by the module, or "" when it is (or the span names nothing the module
// could declare: a package outside the module, an unexported name, an
// environment variable).
func (d decls) undeclared(span string) string {
	m := goName.FindStringSubmatch(span)
	if m == nil {
		return ""
	}
	parts := strings.Split(m[1], ".")
	last := parts[len(parts)-1]
	if !exported(last) || envLike(last) || historicalNames[last] {
		return ""
	}
	if len(parts) > 1 && !exported(parts[0]) {
		pkg, ok := d.pkgs[parts[0]]
		if !ok {
			return "" // a package outside the module (sort.SliceStable)
		}
		parts = parts[1:]
		if !pkg[parts[0]] {
			return "no declaration of " + parts[0] + " in package " + m[1][:strings.IndexByte(m[1], '.')]
		}
	}
	switch len(parts) {
	case 1:
		if !d.names[parts[0]] {
			return "no declaration of " + parts[0]
		}
	case 2:
		if !d.names[parts[0]] {
			return "no declaration of " + parts[0]
		}
		if !d.members[parts[0]][parts[1]] {
			return "type " + parts[0] + " declares no method or field " + parts[1]
		}
	default:
		return "" // a selector chain through a value, not a declaration
	}
	return ""
}

// TestDocsNameDeclaredIdentifiers: every exported Go identifier README.md and
// DESIGN.md backtick — `Name`, `pkg.Name`, `Type.Method` — is declared by a
// non-test .go file of the repository, so a rename or deletion cannot leave
// the documents describing code that no longer exists. Environment-variable
// spellings and historicalNames are exempt.
func TestDocsNameDeclaredIdentifiers(t *testing.T) {
	d := moduleDecls(t)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, m := range backticked.FindAllStringSubmatch(line, -1) {
				if why := d.undeclared(m[1]); why != "" {
					t.Errorf("%s:%d: `%s`: %s", doc, i+1, m[1], why)
				}
			}
		}
	}
}
