// Package analysis is a stdlib-only static-analysis engine (go/ast +
// go/types, no external dependencies) enforcing steerq's project invariants:
// exhaustive handling of plan enumerations, deterministic randomness,
// panic-free library code, wrapped errors at package boundaries, and —
// because the repo's core claim is byte-identical pipeline output at any
// worker count — determinism itself: no stray wall-clock reads, no
// map-iteration order escaping into output, paired mutexes, bounded metric
// labels and threaded contexts.
//
// The engine mirrors the shape of golang.org/x/tools/go/analysis at a much
// smaller scale: a Loader type-checks the whole module from source, each
// Analyzer runs a single pass over one type-checked unit, and diagnostics
// carry exact file:line:column positions. The driver lives in
// cmd/steerq-lint: it runs every analyzer, prints each finding with
// WriteText and fails on any of them.
//
// # Suppression pragmas
//
// See pragma.go for the vocabulary (steerq:allow-panic,
// steerq:allow-wallclock). A pragma covers the comment's line and the line
// directly below and should carry a justification.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned at a concrete file location.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// WriteText prints one file:line:col: analyzer: message line per finding.
func WriteText(w io.Writer, diags []Diagnostic) error {
	for _, d := range diags {
		if _, err := fmt.Fprintln(w, d); err != nil {
			return fmt.Errorf("analysis: write findings: %w", err)
		}
	}
	return nil
}

// Analyzer is a single-pass check over one type-checked unit.
type Analyzer struct {
	Name string
	Doc  string
	// SkipTests excludes units that contain _test.go files. Test code
	// legitimately pattern-matches a few enum members or panics in helpers.
	SkipTests bool
	Run       func(*Pass)
}

// Pass hands one type-checked unit to an analyzer. Files holds only the
// files diagnostics may be reported against (for test units, just the test
// files — the base files were already analyzed in the base unit).
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// ModulePath is the module's import-path prefix ("steerq").
	ModulePath string

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// LibraryPackage reports whether the pass's package is library code: inside
// the module's internal/ tree. Binaries (cmd/, examples/) and external
// modules are not library packages.
func (p *Pass) LibraryPackage() bool {
	return strings.HasPrefix(p.Pkg.Path(), p.ModulePath+"/internal/")
}

// Analyzers returns every registered analyzer in a stable order.
func Analyzers() []*Analyzer {
	all := []*Analyzer{
		ExhaustiveSwitch,
		RandCheck,
		PanicFree,
		ErrWrap,
		DetCheck,
		LockCheck,
		ObsLabels,
		CtxFlow,
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// Run executes the analyzers over the units and returns all diagnostics
// sorted by position.
func Run(units []*Unit, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, u := range units {
		for _, a := range analyzers {
			if a.SkipTests && u.Test {
				continue
			}
			pass := &Pass{
				Analyzer:   a,
				Fset:       u.Fset,
				Files:      u.Files,
				Pkg:        u.Pkg,
				Info:       u.Info,
				ModulePath: u.ModulePath,
				diags:      &diags,
			}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}
