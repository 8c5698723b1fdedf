package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches expectation comments in fixture files:
//
//	switch op { // want "switch over ... misses"
//
// The quoted text must be a substring of a diagnostic reported on that line.
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// fixtureTest type-checks one fixture package under testdata/src and checks
// the analyzer's diagnostics against the file's // want comments, both ways:
// every expectation must be matched and every diagnostic expected.
func fixtureTest(t *testing.T, a *Analyzer, fixturePath, dir string) {
	t.Helper()
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	files, err := filepath.Glob(filepath.Join("testdata", "src", dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixture files in testdata/src/%s: %v", dir, err)
	}
	unit, err := loader.CheckFiles(fixturePath, files, false)
	if err != nil {
		t.Fatalf("CheckFiles: %v", err)
	}

	diags := Run([]*Unit{unit}, []*Analyzer{a})

	// Collect expectations: "file:line" -> expected substrings.
	wants := make(map[string][]string)
	for _, f := range unit.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := unit.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				wants[key] = append(wants[key], m[1])
			}
		}
	}

	matched := make(map[string]int) // key -> count of matched expectations
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		found := false
		for _, w := range wants[key] {
			if strings.Contains(d.Message, w) {
				matched[key]++
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		if matched[key] < len(ws) {
			t.Errorf("%s: expected %d diagnostic(s) matching %q, matched %d",
				key, len(ws), ws, matched[key])
		}
	}
}

func TestExhaustiveSwitchFixture(t *testing.T) {
	fixtureTest(t, ExhaustiveSwitch, "steerq/internal/fixture/exhaustive", "exhaustive")
}

func TestRandCheckFixture(t *testing.T) {
	fixtureTest(t, RandCheck, "steerq/internal/fixture/randbad", "randbad")
}

func TestPanicFreeFixture(t *testing.T) {
	fixtureTest(t, PanicFree, "steerq/internal/fixture/panicbad", "panicbad")
}

func TestErrWrapFixture(t *testing.T) {
	fixtureTest(t, ErrWrap, "steerq/internal/fixture/errbad", "errbad")
}

func TestDetCheckFixture(t *testing.T) {
	fixtureTest(t, DetCheck, "steerq/internal/fixture/detbad", "detbad")
}

func TestLockCheckFixture(t *testing.T) {
	fixtureTest(t, LockCheck, "steerq/internal/fixture/lockbad", "lockbad")
}

func TestObsLabelsFixture(t *testing.T) {
	fixtureTest(t, ObsLabels, "steerq/internal/fixture/obsbad", "obsbad")
}

func TestCtxFlowFixture(t *testing.T) {
	fixtureTest(t, CtxFlow, "steerq/internal/fixture/ctxbad", "ctxbad")
}

// TestRepoIsClean runs every analyzer over the whole module and expects zero
// findings — the same gate ci.sh enforces via cmd/steerq-lint.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	units, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	if len(units) < 10 {
		t.Fatalf("LoadAll found only %d units; module discovery broken", len(units))
	}
	for _, d := range Run(units, Analyzers()) {
		t.Errorf("finding: %s", d)
	}
}
