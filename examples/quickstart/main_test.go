package main

import (
	"bytes"
	"fmt"
	"math"
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

// TestBestComparesWithPrintedDefault: the percentage the example prints for
// the best configuration is the change from the default runtime it prints to
// the best runtime it prints, within the rounding of the three printed
// figures (one decimal each).
func TestBestComparesWithPrintedDefault(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	var estCost, def, best, pct float64
	found := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if _, err := fmt.Sscanf(line, "default: est cost %f, simulated runtime %fs", &estCost, &def); err == nil {
			found++
		}
		if _, err := fmt.Sscanf(line, "best configuration: runtime %fs (%f%% vs default)", &best, &pct); err == nil {
			found++
		}
	}
	if found != 2 || def <= 0 {
		t.Fatalf("found %d of the default and best lines (default %.1fs) in:\n%s", found, def, out.String())
	}
	// The extremes of the change over every pair of runtimes that print as
	// the printed ones.
	const half = 0.05
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, d := range []float64{def - half, def + half} {
		for _, b := range []float64{best - half, best + half} {
			c := 100 * (b - d) / d
			lo, hi = math.Min(lo, c), math.Max(hi, c)
		}
	}
	if pct < lo-half || pct > hi+half {
		t.Errorf("best runtime %.1fs against the printed default %.1fs is a %.2f%% to %.2f%% change, but the example prints %+.1f%%", best, def, lo, hi, pct)
	}
}
