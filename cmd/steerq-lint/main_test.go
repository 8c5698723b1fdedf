package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// detSrc has exactly one finding: map iteration order escaping into a
// returned slice.
const detSrc = `package detmod

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

// Hello anchors the import block.
func Hello() { fmt.Println("hi") }
`

// writeModule lays down a one-file module holding detSrc.
func writeModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module detmod\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "det.go"), []byte(detSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// lint runs the driver over dir and returns its exit status and stdout.
func lint(t *testing.T, dir string, args ...string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(dir, args, &stdout, &stderr)
	t.Logf("steerq-lint %s: exit %d, stderr:\n%s", strings.Join(args, " "), code, stderr.String())
	return code, stdout.String()
}

var findingRe = regexp.MustCompile(`^\S*det\.go:\d+:\d+: detcheck: .+$`)

func TestFindingFails(t *testing.T) {
	code, out := lint(t, writeModule(t), "./...")
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if code != 1 || len(lines) != 1 || !findingRe.MatchString(lines[0]) {
		t.Fatalf("exit %d, stdout %q: want exit 1 and one det.go detcheck line", code, out)
	}
}

func TestList(t *testing.T) {
	code, out := lint(t, t.TempDir(), "-list")
	if n := strings.Count(out, "\n"); code != 0 || n != 8 {
		t.Fatalf("-list: exit %d, %d lines; want exit 0 and one line per analyzer (8):\n%s", code, n, out)
	}
}

func TestUnknownFlag(t *testing.T) {
	dir := writeModule(t)
	for _, flag := range []string{"-format=json", "-fix"} {
		if code, _ := lint(t, dir, flag); code != 2 {
			t.Errorf("%s exited %d, want 2", flag, code)
		}
	}
}
