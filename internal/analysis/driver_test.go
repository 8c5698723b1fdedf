package analysis

import (
	"bytes"
	"go/token"
	"testing"
)

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
