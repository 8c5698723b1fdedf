package rules

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"

	"steerq/internal/cascades"
)

// TestCatalogGolden pins the catalog census to the paper's Table 2: 256
// rules, every ID in [0, 256) registered exactly once, unique names, and
// category bands of exactly 37/46/141/32 laid out contiguously. It also
// takes a census of the ID constants in ids.go: distinct values, one per
// explicit registration, none inside a declared block's range — so an ID
// constant nothing registers fails here.
func TestCatalogGolden(t *testing.T) {
	rs := Catalog()
	infos := rs.Infos()
	if len(infos) != catalogEnd {
		t.Fatalf("catalog has %d rules, want %d", len(infos), catalogEnd)
	}

	names := make(map[string]int)
	counts := make(map[cascades.Category]int)
	for want, ri := range infos {
		if ri.ID != want {
			t.Fatalf("rule IDs not contiguous: position %d holds ID %d", want, ri.ID)
		}
		if ri.Name == "" {
			t.Errorf("rule %d has no name", ri.ID)
		}
		if prev, dup := names[ri.Name]; dup {
			t.Errorf("rule name %q claimed by IDs %d and %d", ri.Name, prev, ri.ID)
		}
		names[ri.Name] = ri.ID
		counts[ri.Category]++

		var band cascades.Category
		switch {
		case ri.ID < requiredEnd:
			band = cascades.Required
		case ri.ID < offByDefaultEnd:
			band = cascades.OffByDefault
		case ri.ID < onByDefaultEnd:
			band = cascades.OnByDefault
		default:
			band = cascades.Implementation
		}
		if ri.Category != band {
			t.Errorf("rule %d (%s) registered as %v but lies in the %v band", ri.ID, ri.Name, ri.Category, band)
		}
	}

	want := map[cascades.Category]int{
		cascades.Required:       37,
		cascades.OffByDefault:   46,
		cascades.OnByDefault:    141,
		cascades.Implementation: 32,
	}
	for cat, n := range want {
		if counts[cat] != n {
			t.Errorf("category %v has %d rules, want %d", cat, counts[cat], n)
		}
	}

	// Every ID constant names one explicit registration: the transforms,
	// the implements and the two extra infos (EnforceExchange,
	// EnforceSortOrder) in buildCatalog.
	consts := idConstants(t)
	if explicit := len(rs.Transforms) + len(rs.Implements) + 2; len(consts) != explicit {
		t.Errorf("ids.go declares %d ID constants, buildCatalog registers %d rules explicitly", len(consts), explicit)
	}
	byValue := make(map[int]string, len(consts))
	for name, id := range consts {
		if prev, dup := byValue[id]; dup {
			t.Errorf("ID constants %s and %s share the value %d", prev, name, id)
		}
		byValue[id] = name
		for _, b := range declaredBlocks {
			if id >= b.first && id < b.first+len(b.names) {
				t.Errorf("ID constant %s = %d lies in the declared %v block [%d, %d)",
					name, id, b.cat, b.first, b.first+len(b.names))
			}
		}
	}

	// The declared-only blocks land where ids.go says they do.
	for _, b := range declaredBlocks {
		for i, name := range b.names {
			ri, ok := rs.Info(b.first + i)
			if !ok || ri.Name != name || ri.Category != b.cat {
				t.Errorf("declared rule %q expected at ID %d/%v, found %+v (ok=%t)",
					name, b.first+i, b.cat, ri, ok)
			}
		}
	}
}

// TestBuildCatalogReportsCensusDefects verifies buildCatalog returns an
// error (rather than panicking) when a declared block misaligns.
func TestBuildCatalogReportsCensusDefects(t *testing.T) {
	if _, err := buildCatalog(); err != nil {
		t.Fatalf("pristine catalog failed to build: %v", err)
	}
	// Shrink a block and check the census error fires, restoring afterwards.
	saved := declaredOnByDefault
	declaredOnByDefault = declaredOnByDefault[:len(declaredOnByDefault)-1]
	declaredBlocks[2].names = declaredOnByDefault
	defer func() {
		declaredOnByDefault = saved
		declaredBlocks[2].names = saved
	}()
	if _, err := buildCatalog(); err == nil {
		t.Fatal("buildCatalog accepted a truncated on-by-default block")
	}
}

// idConstants parses ids.go and returns its ID* constants by name. Each must
// be an integer literal.
func idConstants(t *testing.T) map[string]int {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "ids.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	consts := make(map[string]int)
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "ID") {
					continue
				}
				var lit *ast.BasicLit
				if i < len(vs.Values) {
					lit, _ = vs.Values[i].(*ast.BasicLit)
				}
				if lit == nil || lit.Kind != token.INT {
					t.Errorf("ID constant %s is not an integer literal", name.Name)
					continue
				}
				id, err := strconv.Atoi(lit.Value)
				if err != nil {
					t.Errorf("ID constant %s: %v", name.Name, err)
					continue
				}
				consts[name.Name] = id
			}
		}
	}
	return consts
}
