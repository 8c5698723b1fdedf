package analysis

import (
	"bytes"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeFixModule lays down a tiny self-contained module with exactly one
// finding — a fixable detcheck slice escape — so -fix has something
// mechanical to repair.
func writeFixModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	gomod := "module fixmod\n\ngo 1.21\n"
	src := `package fixmod

import (
	"fmt"
)

// Keys collects map keys without sorting.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Hello anchors the fmt import.
func Hello() { fmt.Println("hi") }
`
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "det.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// loadFixModule type-checks the module with a fresh loader and runs detcheck.
func loadFixModule(t *testing.T, dir string) []Diagnostic {
	t.Helper()
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	units, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	return Run(units, []*Analyzer{DetCheck})
}

// TestWriteText pins the human format: file:line:col: analyzer: message.
func TestWriteText(t *testing.T) {
	diags := []Diagnostic{{
		Pos:      token.Position{Filename: "a.go", Line: 3, Column: 7},
		Analyzer: "detcheck",
		Message:  "boom",
	}}
	var buf bytes.Buffer
	if err := WriteText(&buf, diags); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "a.go:3:7: detcheck: boom\n"; got != want {
		t.Errorf("WriteText = %q, want %q", got, want)
	}
}

// TestApplyFixesIdempotent applies the suggested sort insertion and verifies
// the repaired module is finding-free, gofmt-clean, and that a second -fix
// pass is a no-op.
func TestApplyFixesIdempotent(t *testing.T) {
	dir := writeFixModule(t)
	diags := loadFixModule(t, dir)
	if len(diags) != 1 || len(diags[0].Fixes) != 1 {
		t.Fatalf("want exactly one fixable finding, got %v", diags)
	}
	n, err := ApplyFixes(diags)
	if err != nil {
		t.Fatalf("ApplyFixes: %v", err)
	}
	if n != 1 {
		t.Fatalf("applied %d fixes, want 1", n)
	}
	fixed, err := os.ReadFile(filepath.Join(dir, "det.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fixed), "sort.Strings(out)") {
		t.Errorf("fix did not insert sort call:\n%s", fixed)
	}
	if !strings.Contains(string(fixed), "\"sort\"") {
		t.Errorf("fix did not add the sort import:\n%s", fixed)
	}
	// The repaired tree must be clean on a fresh load, so a re-run has
	// nothing to apply: the idempotency contract of -fix.
	again := loadFixModule(t, dir)
	if len(again) != 0 {
		t.Fatalf("repaired module still has findings: %v", again)
	}
	n2, err := ApplyFixes(again)
	if err != nil || n2 != 0 {
		t.Fatalf("second pass applied %d fixes (err %v), want 0", n2, err)
	}
}

// TestApplyFixesOverlap rejects overlapping edits without touching the file.
func TestApplyFixesOverlap(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "f.go")
	orig := []byte("package p\n")
	if err := os.WriteFile(name, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	diags := []Diagnostic{{
		Analyzer: "x",
		Fixes: []Fix{{
			Message: "conflicting",
			Edits: []Edit{
				{Filename: name, Start: 0, End: 5, NewText: "a"},
				{Filename: name, Start: 3, End: 7, NewText: "b"},
			},
		}},
	}}
	if _, err := ApplyFixes(diags); err == nil {
		t.Fatal("overlapping edits must error")
	}
	after, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, orig) {
		t.Errorf("file modified despite overlap error: %q", after)
	}
}

// TestApplyFixesDedup applies byte-identical edits (two findings suggesting
// the same import insertion) exactly once.
func TestApplyFixesDedup(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "f.go")
	if err := os.WriteFile(name, []byte("package p\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	edit := Edit{Filename: name, Start: 9, End: 9, NewText: "\n\nvar V = 1"}
	diags := []Diagnostic{
		{Analyzer: "x", Fixes: []Fix{{Message: "add V", Edits: []Edit{edit}}}},
		{Analyzer: "y", Fixes: []Fix{{Message: "add V", Edits: []Edit{edit}}}},
	}
	if _, err := ApplyFixes(diags); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(after), "var V = 1"); got != 1 {
		t.Errorf("identical edit applied %d times, want 1:\n%s", got, after)
	}
}
