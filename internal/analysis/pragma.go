package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The pragma vocabulary. Every suppression comment the analyzers honor is
// declared here and parsed by the helpers below, so the pragma grammar cannot
// drift between analyzers.
//
// A pragma exempts the statement on the same line or the line directly below
// the comment and should carry a justification after the token:
//
//	// steerq:allow-panic — mirrors slice indexing semantics.
//	panic(fmt.Sprintf("bitvec: bit %d out of range", i))
const (
	// AllowPanicPragma exempts the next (or same) line from the panicfree
	// analyzer.
	AllowPanicPragma = "steerq:allow-panic"
	// AllowWallclockPragma exempts the next (or same) line from detcheck's
	// wall-clock rule. Reserved for approved seams such as obs.WallClock.
	AllowWallclockPragma = "steerq:allow-wallclock"
)

// pragmaLines returns the set of file lines covered by the given pragma:
// the pragma's own line and the line below it, so the comment may sit on the
// flagged line or directly above it.
func pragmaLines(fset *token.FileSet, f *ast.File, pragma string) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !isPragmaComment(c.Text, pragma) {
				continue
			}
			line := fset.Position(c.Pos()).Line
			lines[line] = true
			lines[line+1] = true
		}
	}
	return lines
}

// isPragmaComment reports whether a comment is a pragma directive: the token
// must lead the comment text (after the // or /* marker and optional space).
// Mid-sentence mentions of a pragma token — documentation talking *about* the
// pragma, like this very comment — are not directives.
func isPragmaComment(text, pragma string) bool {
	for _, marker := range []string{"//", "/*"} {
		if rest, ok := strings.CutPrefix(text, marker); ok {
			return strings.HasPrefix(strings.TrimLeft(rest, " \t"), pragma)
		}
	}
	return false
}
