package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// readmeQuote returns the output README quotes for this example: the lines
// of the first bare ``` block of its Quickstart section. Fenced blocks with
// a language tag (the command) are skipped.
func readmeQuote(readme string) []string {
	_, section, ok := strings.Cut(readme, "\n## Quickstart\n")
	if !ok {
		return nil
	}
	var quote []string
	inBlock, tagged := false, false
	for _, line := range strings.Split(section, "\n") {
		switch {
		case inBlock && line == "```":
			return quote
		case inBlock:
			quote = append(quote, line)
		case tagged && line == "```":
			tagged = false
		case tagged:
		case line == "```":
			inBlock = true
		case strings.HasPrefix(line, "```"):
			tagged = true
		}
	}
	return nil
}

// TestReadmeQuotesOutput: every line of README's quoted quickstart output is
// a line the example prints, so the quote cannot go stale when the numbers
// move.
func TestReadmeQuotesOutput(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	quote := readmeQuote(string(readme))
	if len(quote) == 0 {
		t.Fatal("no quoted output block in README's Quickstart section")
	}
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	printed := make(map[string]bool)
	for _, line := range strings.Split(out.String(), "\n") {
		printed[line] = true
	}
	for _, line := range quote {
		if !printed[line] {
			t.Errorf("README quotes a line the example does not print (refresh it from go run ./examples/quickstart): %q", line)
		}
	}
}
