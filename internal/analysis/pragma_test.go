package analysis

import (
	"go/parser"
	"go/token"
	"testing"
)

func TestIsPragmaComment(t *testing.T) {
	cases := []struct {
		text string
		want bool
	}{
		{"// steerq:allow-panic — justified", true},
		{"//steerq:allow-panic", true},
		{"//\tsteerq:allow-panic", true},
		{"/* steerq:allow-panic */", true},
		{"// steerq:allow-panic", true},
		// Mid-sentence mentions are documentation, not directives.
		{"// honor the steerq:allow-panic pragma here", false},
		{"// the token \"steerq:allow-panic\" suppresses", false},
		{"// steerq:allow-wallclock", false}, // different pragma
		{"// nothing at all", false},
	}
	for _, c := range cases {
		if got := isPragmaComment(c.text, AllowPanicPragma); got != c.want {
			t.Errorf("isPragmaComment(%q) = %v, want %v", c.text, got, c.want)
		}
	}
}

func TestPragmaLinesWindow(t *testing.T) {
	src := `package p

func f() {
	// steerq:allow-panic — next line covered
	panic("a")
	panic("b")
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	lines := pragmaLines(fset, f, AllowPanicPragma)
	if !lines[4] || !lines[5] {
		t.Errorf("pragma on line 4 must cover lines 4 and 5, got %v", lines)
	}
	if lines[6] {
		t.Errorf("line 6 must not be covered, got %v", lines)
	}
}
