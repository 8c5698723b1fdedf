package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"sort"
)

// Edit is a single byte-range replacement in one file. Start == End inserts.
type Edit struct {
	Filename string
	Start    int
	End      int
	NewText  string
}

// Fix is one suggested repair: a short description plus the text edits that
// implement it. Fixes are self-contained — applying a fix removes the
// finding, so applying all fixes twice is a no-op (the idempotency the driver
// test pins).
type Fix struct {
	Message string
	Edits   []Edit
}

// ApplyFixes applies every fix attached to diags to the files on disk. Edits
// are deduplicated (two findings may suggest the identical import insertion),
// checked for overlap, applied back-to-front per file and the result
// re-rendered in canonical gofmt style with sorted imports. It returns the
// number of fixes applied; on an overlap the whole file is skipped with an
// error so a half-applied state never reaches disk.
func ApplyFixes(diags []Diagnostic) (int, error) {
	byFile := make(map[string][]Edit)
	applied := 0
	for _, d := range diags {
		for _, fx := range d.Fixes {
			applied++
			for _, e := range fx.Edits {
				byFile[e.Filename] = append(byFile[e.Filename], e)
			}
		}
	}
	if applied == 0 {
		return 0, nil
	}
	files := make([]string, 0, len(byFile))
	for name := range byFile {
		files = append(files, name)
	}
	sort.Strings(files)
	for _, name := range files {
		if err := applyFileEdits(name, byFile[name]); err != nil {
			return 0, err
		}
	}
	return applied, nil
}

// applyFileEdits splices one file's deduplicated edits and rewrites it.
func applyFileEdits(name string, edits []Edit) error {
	edits = dedupEdits(edits)
	sort.Slice(edits, func(i, j int) bool {
		if edits[i].Start != edits[j].Start {
			return edits[i].Start < edits[j].Start
		}
		return edits[i].End < edits[j].End
	})
	for i := 1; i < len(edits); i++ {
		if edits[i].Start < edits[i-1].End {
			return fmt.Errorf("analysis: overlapping fixes in %s at offsets %d and %d; apply one and re-run",
				name, edits[i-1].Start, edits[i].Start)
		}
	}
	src, err := os.ReadFile(name)
	if err != nil {
		return fmt.Errorf("analysis: apply fixes: %w", err)
	}
	for i := len(edits) - 1; i >= 0; i-- {
		e := edits[i]
		if e.Start < 0 || e.End > len(src) || e.Start > e.End {
			return fmt.Errorf("analysis: fix edit out of range in %s (%d..%d of %d bytes)", name, e.Start, e.End, len(src))
		}
		var out []byte
		out = append(out, src[:e.Start]...)
		out = append(out, e.NewText...)
		out = append(out, src[e.End:]...)
		src = out
	}
	formatted, err := formatSource(name, src)
	if err != nil {
		return err
	}
	if err := os.WriteFile(name, formatted, 0o644); err != nil {
		return fmt.Errorf("analysis: apply fixes: %w", err)
	}
	return nil
}

// dedupEdits drops byte-identical edits.
func dedupEdits(edits []Edit) []Edit {
	seen := make(map[Edit]bool, len(edits))
	out := edits[:0]
	for _, e := range edits {
		if seen[e] {
			continue
		}
		seen[e] = true
		out = append(out, e)
	}
	return out
}

// formatSource re-renders edited source in gofmt style with sorted imports,
// so applied fixes never trip the ci.sh gofmt gate.
func formatSource(filename string, src []byte) ([]byte, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("analysis: fix produced unparsable %s: %w", filename, err)
	}
	ast.SortImports(fset, f)
	var buf bytes.Buffer
	if err := format.Node(&buf, fset, f); err != nil {
		return nil, fmt.Errorf("analysis: format fixed %s: %w", filename, err)
	}
	return buf.Bytes(), nil
}
