package steerq_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"unicode"
)

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
	if !exported(last) || envLike(last) {
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
// spellings are exempt.
func TestDocsNameDeclaredIdentifiers(t *testing.T) {
	d := moduleDecls(t)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		for i, line := range readLines(t, doc) {
			for _, m := range backticked.FindAllStringSubmatch(line, -1) {
				if why := d.undeclared(m[1]); why != "" {
					t.Errorf("%s:%d: `%s`: %s", doc, i+1, m[1], why)
				}
			}
		}
	}
}

// expAllGolden is the stdout of `steerq-bench -exp all -scale 0.01 -m 300`,
// the run ci.sh's "paper tables golden" stage diffs.
const expAllGolden = "cmd/steerq-bench/testdata/exp_all.golden.txt"

// readLines returns a file's lines without their newlines.
func readLines(t *testing.T, path string) []string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(raw), "\n")
}

// TestExperimentsQuoteExpAll: every fenced block of EXPERIMENTS.md, DESIGN.md
// and README.md whose info string is exp_all is a contiguous run of lines of
// the exp_all golden, byte for byte, and every section of EXPERIMENTS.md's
// reproduction (each "## " section before the "# Ledger" heading) holds at
// least one such block. So a number the documents quote from a run is one
// ci.sh checks, and a change that moves exp_all fails here until the excerpts
// it moved are refreshed.
func TestExperimentsQuoteExpAll(t *testing.T) {
	golden := readLines(t, expAllGolden)
	doc := readLines(t, "EXPERIMENTS.md")
	section, sectionLine, quoted, ledger := "", 0, false, false
	endSection := func() {
		if section != "" && !ledger && !quoted {
			t.Errorf("EXPERIMENTS.md:%d: reproduction section %q quotes no exp_all block", sectionLine, section)
		}
	}
	for i := 0; i < len(doc); i++ {
		line := doc[i]
		switch {
		case strings.HasPrefix(line, "## "):
			endSection()
			section, sectionLine, quoted = strings.TrimPrefix(line, "## "), i+1, false
		case line == "# Ledger":
			endSection()
			section, ledger = "", true
		case line == "```exp_all":
			i = checkExcerpt(t, "EXPERIMENTS.md", golden, doc, i)
			quoted = true
		}
	}
	endSection()
	if !ledger {
		t.Error(`EXPERIMENTS.md has no "# Ledger" heading ending the reproduction`)
	}
	for _, name := range []string{"DESIGN.md", "README.md"} {
		doc := readLines(t, name)
		for i := 0; i < len(doc); i++ {
			if doc[i] == "```exp_all" {
				i = checkExcerpt(t, name, golden, doc, i)
			}
		}
	}
}

// checkExcerpt checks the exp_all block whose opening fence is line open of
// doc (the lines of the file called name), reporting the first line that
// departs from the golden run that matches the most of it, and returns the
// index of the closing fence.
func checkExcerpt(t *testing.T, name string, golden, doc []string, open int) int {
	t.Helper()
	end := open + 1
	for end < len(doc) && doc[end] != "```" {
		end++
	}
	if end == len(doc) {
		t.Fatalf("%s:%d: exp_all block is never closed", name, open+1)
	}
	block, first := doc[open+1:end], open+2
	if len(block) == 0 {
		t.Errorf("%s:%d: empty exp_all block", name, first)
		return end
	}
	best, at := -1, 0
	for g := range golden {
		n := 0
		for n < len(block) && g+n < len(golden) && golden[g+n] == block[n] {
			n++
		}
		if n == len(block) {
			return end
		}
		if n > best {
			best, at = n, g+n
		}
	}
	switch {
	case best == 0:
		t.Errorf("%s:%d: %q is no line of %s", name, first, block[0], expAllGolden)
	case at == len(golden):
		t.Errorf("%s:%d: %q runs past the end of %s", name, first+best, block[best], expAllGolden)
	default:
		t.Errorf("%s:%d: %q differs from %s:%d, %q", name, first+best, block[best], expAllGolden, at+1, golden[at])
	}
	return end
}

// citation is a reference to a section of EXPERIMENTS.md, DESIGN.md or README
// by the start of its title, as the documents and comments write it:
// EXPERIMENTS.md "<title>", DESIGN.md, "<title>", EXPERIMENTS.md ("<title>"),
// EXPERIMENTS "<title>" or README "<title>".
var citation = regexp.MustCompile(`(EXPERIMENTS|DESIGN|README)(?:\.md)?,? \(?"([^"]+)"`)

// ownRef is a reference inside DESIGN.md to its own sections, by the start
// of their titles and with no document name: ("<title>"), ("<title>",
// "<title>") or see "<title>". ownTitle picks the titles out of it, and
// codeSpan is Markdown code, where a quoted string is no reference.
var (
	ownRef   = regexp.MustCompile(`(?:\(|\b[Ss]ee )((?:"[^"]+"(?:, )?)+)`)
	ownTitle = regexp.MustCompile(`"([^"]+)"`)
	codeSpan = regexp.MustCompile("```.*?```|`[^`]*`")
)

// citedLevels are the headings a citation of each document may name:
// EXPERIMENTS.md's sections and ledger entries are all "## " headings, while
// DESIGN.md and README nest "### " sections under them.
var citedLevels = map[string][]string{
	"EXPERIMENTS": {"## "},
	"DESIGN":      {"## ", "### "},
	"README":      {"## ", "### "},
}

// TestExperimentsCitationsResolve: every citation of an EXPERIMENTS.md,
// DESIGN.md or README section in the repository's Markdown files, Go
// comments and ci.sh, and every reference DESIGN.md makes to its own
// sections (ownRef), is the start of one of that document's headings, so
// cutting or renaming a section cannot strand a reference to it. Text is
// matched with its whitespace collapsed, because citations wrap across lines.
// A title in angle brackets, or an ellipsis, is a placeholder, not a
// citation.
func TestExperimentsCitationsResolve(t *testing.T) {
	headings := map[string][]string{}
	for doc, levels := range citedLevels {
		for _, line := range readLines(t, doc+".md") {
			for _, level := range levels {
				if title, ok := strings.CutPrefix(line, level); ok {
					headings[doc] = append(headings[doc], title)
				}
			}
		}
	}
	resolves := func(doc, title string) bool {
		for _, h := range headings[doc] {
			if strings.HasPrefix(h, title) {
				return true
			}
		}
		return false
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if e.Name() == ".git" || e.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		var text string
		switch {
		case strings.HasSuffix(path, ".md"):
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			text = string(raw)
		case path == "ci.sh":
			for _, line := range readLines(t, path) {
				text += strings.TrimLeft(line, " \t#") + "\n"
			}
		case strings.HasSuffix(path, ".go"):
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, c := range f.Comments {
				text += c.Text()
			}
		default:
			return nil
		}
		text = strings.Join(strings.Fields(text), " ")
		if path == "DESIGN.md" {
			own := citation.ReplaceAllString(codeSpan.ReplaceAllString(text, ""), "")
			for _, m := range ownRef.FindAllStringSubmatch(own, -1) {
				for _, title := range ownTitle.FindAllStringSubmatch(m[1], -1) {
					if !resolves("DESIGN", title[1]) {
						t.Errorf("%s: %s cites no DESIGN.md heading", path, title[0])
					}
				}
			}
		}
		for _, m := range citation.FindAllStringSubmatch(text, -1) {
			// benchmark/ is a module of its own: its README citations name
			// benchmark/README.md, whose sections lead with bold text rather
			// than headings.
			if m[1] == "README" && strings.HasPrefix(path, "benchmark"+string(filepath.Separator)) {
				continue
			}
			if !strings.HasPrefix(m[2], "<") && m[2] != "…" && !resolves(m[1], m[2]) {
				t.Errorf("%s: %s cites no %s.md heading", path, m[0], m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGoldensHaveNoTrailingBlanks: no line of a committed golden — a file
// directly under cmd/*/testdata or internal/*/testdata — ends in a space or a
// tab. An editor that trims trailing blanks on save would otherwise change a
// golden, or a document's excerpt of one, without anyone meaning to.
func TestGoldensHaveNoTrailingBlanks(t *testing.T) {
	var paths []string
	for _, pattern := range []string{"cmd/*/testdata/*", "internal/*/testdata/*"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	if len(paths) == 0 {
		t.Fatal("no golden under cmd/*/testdata or internal/*/testdata")
	}
	for _, path := range paths {
		if info, err := os.Stat(path); err != nil {
			t.Fatal(err)
		} else if info.IsDir() {
			continue
		}
		for i, line := range readLines(t, path) {
			if strings.HasSuffix(line, " ") || strings.HasSuffix(line, "\t") {
				t.Errorf("%s:%d: line ends in a blank: %q", path, i+1, line)
			}
		}
	}
}

// inventoryPath is the backticked path that opens a row of DESIGN.md's
// "System inventory" table.
var inventoryPath = regexp.MustCompile("^\\| `([^`]+)`")

// TestDesignInventoryListsEveryPackage: DESIGN.md's "System inventory" has
// exactly one row per Go package directory of the root module — the root
// itself as `.`, every directory under internal/, cmd/ and examples/ that
// holds a .go file — plus one for benchmark/, the separate module that
// measures it, and no other row. So a package cannot be added, moved or
// deleted without the inventory following.
func TestDesignInventoryListsEveryPackage(t *testing.T) {
	want := map[string]bool{"benchmark": true}
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			want[filepath.ToSlash(filepath.Dir(path))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]int{}
	in := false
	for i, line := range readLines(t, "DESIGN.md") {
		switch {
		case line == "## System inventory":
			in = true
		case in && strings.HasPrefix(line, "## "):
			in = false
		case in:
			m := inventoryPath.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			dir := strings.TrimSuffix(m[1], "/")
			if rows[dir] > 0 {
				t.Errorf("DESIGN.md:%d: %s has a second inventory row (first at line %d)", i+1, m[1], rows[dir])
			} else {
				rows[dir] = i + 1
			}
			if !want[dir] {
				t.Errorf("DESIGN.md:%d: inventory row %s is no package directory of the module", i+1, m[1])
			}
		}
	}
	if len(rows) == 0 {
		t.Fatal(`DESIGN.md has no "## System inventory" rows`)
	}
	var missing []string
	for dir := range want {
		if rows[dir] == 0 {
			missing = append(missing, dir)
		}
	}
	sort.Strings(missing)
	for _, dir := range missing {
		t.Errorf("DESIGN.md \"System inventory\" has no row for %s", dir)
	}
}

// changeRef is a reference to a numbered change or request: the history of
// the code, which the ledger at the end of EXPERIMENTS.md and CHANGES.md keep.
var changeRef = regexp.MustCompile(`\b(PR|ISSUE)s? [0-9]+`)

// TestDocsCiteNoChangeNumbers: README.md and DESIGN.md describe the code as
// it is and cite no change by number; what a change measured is in its
// ledger entry, which the documents cite by heading.
func TestDocsCiteNoChangeNumbers(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		for i, line := range readLines(t, doc) {
			if m := changeRef.FindString(line); m != "" {
				t.Errorf("%s:%d: names a change (%q): cite its EXPERIMENTS.md ledger entry instead", doc, i+1, m)
			}
		}
	}
}
