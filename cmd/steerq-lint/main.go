// Command steerq-lint type-checks the module in the working directory and
// runs every steerq static analyzer over it (see internal/analysis):
// exhaustiveswitch, randcheck, panicfree, errwrap, detcheck, lockcheck,
// obslabels and ctxflow.
//
// Usage:
//
//	steerq-lint [-list] [packages]
//
//	-list   list the analyzers and exit
//
// Each finding prints as file:line:col: analyzer: message. The package
// arguments are accepted for go vet style invocations ("steerq-lint ./...")
// and ignored: the whole module is always analyzed. Exit status: 0 clean, 1
// on any finding, 2 on a usage or load error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"steerq/internal/analysis"
)

func main() {
	os.Exit(run(".", os.Args[1:], os.Stdout, os.Stderr))
}

// run lints the module rooted at dir and returns the exit status.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("steerq-lint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	list := flags.Bool("list", false, "list the analyzers and exit")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	analyzers := analysis.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	fail := func(err error) int {
		fmt.Fprintf(stderr, "steerq-lint: %v\n", err)
		return 2
	}
	root, err := filepath.Abs(dir)
	if err != nil {
		return fail(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		return fail(err)
	}
	units, err := loader.LoadAll()
	if err != nil {
		return fail(err)
	}
	diags := analysis.Run(units, analyzers)
	if err := analysis.WriteText(stdout, diags); err != nil {
		return fail(err)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "steerq-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
