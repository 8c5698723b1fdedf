package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden.txt from this run")

// TestStdoutGolden pins the stdout of every subcommand, each at a small
// pinned scale and seed, plus each subcommand's -h flag list, against
// testdata/stdout.golden.txt. The bundle runs share one file in a temporary
// directory, printed as $TMP. Regenerate with
//
//	go test ./cmd/steerq -run TestStdoutGolden -update
func TestStdoutGolden(t *testing.T) {
	dir := t.TempDir()
	hints := filepath.Join(dir, "hints.txt")
	// The hint the pipeline runs below recommend for A/d0/j3.
	if err := os.WriteFile(hints, []byte("DISABLE: UnionAllToVirtualDataset\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stqb := filepath.Join(dir, "day0.stqb")
	job := []string{"-workload", "A", "-scale", "0.01", "-seed", "2021", "-job", "0/3"}
	small := []string{"-workload", "B", "-scale", "0.002", "-seed", "5"}
	runs := [][]string{
		append([]string{"pipeline", "-m", "60", "-k", "5"}, job...),
		append([]string{"pipeline", "-m", "60", "-k", "5", "-fault-seed", "1337"}, job...),
		append([]string{"groups", "-top", "5"}, small...),
		append([]string{"workload"}, small...),
		append([]string{"explain"}, job...),
		append([]string{"explain", "-hints", hints}, job...),
		append([]string{"bundle", "-max-jobs", "10", "-m", "40", "-k", "3", "-created-unix", "1700000000", "-out", stqb}, small...),
		{"bundle", "-inspect", stqb},
		append([]string{"steer", "-bundle", stqb, "-job", "0/1"}, small...),
	}
	var got bytes.Buffer
	for _, c := range commands {
		runs = append(runs, []string{c.name, "-h"})
	}
	for _, args := range runs {
		var out bytes.Buffer
		if err := run(args, &out); err != nil && !errors.Is(err, flag.ErrHelp) {
			t.Fatalf("steerq %s: %v", strings.Join(args, " "), err)
		}
		fmt.Fprintf(&got, "$ steerq %s\n%s", strings.Join(args, " "), out.String())
	}
	text := strings.ReplaceAll(got.String(), dir, "$TMP")

	const golden = "testdata/stdout.golden.txt"
	if *update {
		if err := os.WriteFile(golden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if text != string(want) {
		gotLines, wantLines := strings.Split(text, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("stdout differs from %s at line %d:\n got: %s\nwant: %s", golden, i+1, g, w)
			}
		}
	}
}

// TestRunRejectsUsageErrors: an unknown or removed subcommand and a flag the
// subcommand does not register are usage errors, not silently accepted.
func TestRunRejectsUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"compile", "-job", "0/3"},
		{"span"},
		{"search", "-m", "200"},
		{"workload", "-fault-seed", "1"},
		{"groups", "-job", "0/3"},
		{"explain", "-workers", "2"},
		{"bundle", "-script", "x.sql", "-out", "x.stqb"},
		{"steer", "-fault-seed", "1", "-bundle", "x.stqb"},
		{"workload", "extra"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if !errors.Is(err, errUsage) {
			t.Errorf("steerq %s: got error %v, want a usage error", strings.Join(args, " "), err)
		}
		if out.Len() != 0 {
			t.Errorf("steerq %s wrote stdout %q", strings.Join(args, " "), out.String())
		}
	}
}

// flagLineRe matches a flag in flag.PrintDefaults output.
var flagLineRe = regexp.MustCompile(`(?m)^  -([a-z][a-z-]*)`)

// TestDocsQuoteTheCLI fails when README.md or the verify skill quotes a
// `steerq <verb>` that run does not dispatch, or a -flag the verb does not
// register. Commands are read from fenced blocks (with \ continuations) and
// inline code spans.
func TestDocsQuoteTheCLI(t *testing.T) {
	flags := make(map[string]map[string]bool)
	for _, c := range commands {
		var out bytes.Buffer
		if err := run([]string{c.name, "-h"}, &out); !errors.Is(err, flag.ErrHelp) {
			t.Fatalf("steerq %s -h: %v", c.name, err)
		}
		flags[c.name] = make(map[string]bool)
		for _, m := range flagLineRe.FindAllStringSubmatch(out.String(), -1) {
			flags[c.name][m[1]] = true
		}
	}
	verbRe := regexp.MustCompile(`^[a-z]+$`)
	flagRe := regexp.MustCompile(`^-([a-z][a-z-]*)(=.*)?$`)
	for _, doc := range []string{"../../README.md", "../../.claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		quoted := 0
		for _, snippet := range codeSnippets(string(raw)) {
			for _, line := range strings.Split(snippet, "\n") {
				fields := strings.Fields(line)
				for i, f := range fields {
					if (f != "steerq" && !strings.HasSuffix(f, "/steerq")) || i+1 == len(fields) || !verbRe.MatchString(fields[i+1]) {
						continue
					}
					verb := fields[i+1]
					quoted++
					if flags[verb] == nil {
						t.Errorf("%s quotes `steerq %s`, which run does not dispatch: %s", doc, verb, line)
						continue
					}
					for _, arg := range fields[i+2:] {
						if strings.HasPrefix(arg, "#") || strings.ContainsAny(arg, "|;&>") {
							break
						}
						if m := flagRe.FindStringSubmatch(arg); m != nil && !flags[verb][m[1]] {
							t.Errorf("%s quotes `steerq %s -%s`, a flag %s does not register: %s", doc, verb, m[1], verb, line)
						}
					}
				}
			}
		}
		if quoted == 0 {
			t.Errorf("%s quotes no steerq command; the scan is broken", doc)
		}
	}
}

// codeSnippets returns a markdown document's fenced code blocks, with
// backslash-continued lines joined, and its inline code spans, with line
// breaks inside a span turned into spaces.
func codeSnippets(doc string) []string {
	var snippets []string
	var prose, block strings.Builder
	inFence := false
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			if inFence {
				snippets = append(snippets, strings.ReplaceAll(block.String(), "\\\n", " "))
				block.Reset()
			}
			inFence = !inFence
		case inFence:
			block.WriteString(line + "\n")
		default:
			prose.WriteString(line + "\n")
		}
	}
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(prose.String(), -1) {
		snippets = append(snippets, strings.ReplaceAll(m[1], "\n", " "))
	}
	return snippets
}
