package analysis

import (
	"encoding/json"
	"fmt"
	"io"
)

// This file renders findings in the driver's three output formats. All three
// are deterministic given the sorted diagnostics Run returns: text for
// humans, JSON (the Report type) for CI archival as LINT_report.json, and
// SARIF 2.1.0 for code-scanning UIs.

// ReportFinding is one finding in the JSON report, with module-relative
// paths so the archived report is machine-independent.
type ReportFinding struct {
	Analyzer string `json:"analyzer"`
	Severity string `json:"severity"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
	Fixable  bool   `json:"fixable,omitempty"`
}

// Report is the machine-readable run summary emitted by -format=json.
type Report struct {
	Tool       string          `json:"tool"`
	Findings   []ReportFinding `json:"findings"`
	Suppressed int             `json:"suppressed,omitempty"`
	Stale      []BaselineEntry `json:"stale_baseline,omitempty"`
}

// NewReport builds the JSON report from a run's surviving diagnostics.
func NewReport(root string, diags []Diagnostic, cfg *Config) Report {
	r := Report{Tool: "steerq-lint", Findings: []ReportFinding{}}
	for _, d := range diags {
		r.Findings = append(r.Findings, ReportFinding{
			Analyzer: d.Analyzer,
			Severity: cfg.Severity(d.Analyzer),
			File:     relPath(root, d.Pos.Filename),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Message:  d.Message,
			Fixable:  len(d.Fixes) > 0,
		})
	}
	return r
}

// WriteJSON serializes the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("analysis: marshal report: %w", err)
	}
	if _, err := w.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("analysis: write report: %w", err)
	}
	return nil
}

// WriteText prints classic file:line:col lines, one per finding.
func WriteText(w io.Writer, diags []Diagnostic) error {
	for _, d := range diags {
		if _, err := fmt.Fprintf(w, "%s: %s: %s\n", d.Pos, d.Analyzer, d.Message); err != nil {
			return fmt.Errorf("analysis: write text report: %w", err)
		}
	}
	return nil
}

// Minimal SARIF 2.1.0 object model — only the properties steerq-lint emits.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// WriteSARIF renders the findings as a single-run SARIF 2.1.0 log. Rules
// list every analyzer that ran (not just those that fired) so a clean run
// still documents its coverage.
func WriteSARIF(w io.Writer, root string, diags []Diagnostic, cfg *Config, analyzers []*Analyzer) error {
	driver := sarifDriver{Name: "steerq-lint", Rules: []sarifRule{}}
	for _, a := range analyzers {
		driver.Rules = append(driver.Rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifMessage{Text: a.Doc},
		})
	}
	results := []sarifResult{}
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   cfg.Severity(d.Analyzer), // SARIF levels "error"/"warning" match
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: relPath(root, d.Pos.Filename)},
					Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: driver}, Results: results}},
	}
	data, err := json.MarshalIndent(log, "", "  ")
	if err != nil {
		return fmt.Errorf("analysis: marshal sarif: %w", err)
	}
	if _, err := w.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("analysis: write sarif: %w", err)
	}
	return nil
}
