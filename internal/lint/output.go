// This file renders findings machine-readably: a compact JSON report for CI
// annotation pipelines, with findings in the one canonical order
// (SortFindings) and stable key order, so the output is golden-testable and
// diffs between runs are semantic, never incidental.

package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
	"sort"
)

// jsonReport is the top-level -json document.
type jsonReport struct {
	// Version is the report schema version, bumped on any shape change —
	// the suite practices the codec discipline it enforces.
	Version  int           `json:"version"`
	Count    int           `json:"count"`
	Findings []jsonFinding `json:"findings"`
}

// jsonReportVersion guards the -json output shape.
const jsonReportVersion = 1

// jsonFinding is one finding on the wire.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Fixable  bool   `json:"fixable"`
}

// WriteJSON writes the findings as one indented JSON document. Findings are
// re-sorted defensively so the output is stable regardless of caller order.
func WriteJSON(w io.Writer, findings []Finding) error {
	SortFindings(findings)
	report := jsonReport{
		Version:  jsonReportVersion,
		Count:    len(findings),
		Findings: make([]jsonFinding, 0, len(findings)),
	}
	for _, f := range findings {
		report.Findings = append(report.Findings, jsonFinding{
			Analyzer: f.Analyzer,
			File:     filepath.ToSlash(f.File),
			Line:     f.Line,
			Col:      f.Col,
			Message:  f.Message,
			Fixable:  f.Fixable(),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// ApplyFixes applies every finding's suggested edits to the files on disk
// through the given read/write hooks, returning how many findings were
// fixed. Edits are applied per file in descending offset order; a finding
// whose edits overlap an already-applied edit is skipped (the next run
// offers it again against the rewritten file).
func ApplyFixes(findings []Finding, readFile func(string) ([]byte, error), writeFile func(string, []byte) error) (int, error) {
	type span struct{ start, end int }
	byFile := make(map[string][]Finding)
	for _, f := range findings {
		if !f.Fixable() {
			continue
		}
		byFile[f.Edits[0].File] = append(byFile[f.Edits[0].File], f)
	}
	files := make([]string, 0, len(byFile))
	for file := range byFile { //antlint:allow maporder keys are sorted before use below
		files = append(files, file)
	}
	sort.Strings(files)
	fixed := 0
	for _, file := range files {
		fs := byFile[file]
		content, err := readFile(file)
		if err != nil {
			return fixed, err
		}
		// Descending start offset: applying from the back keeps earlier
		// offsets (all expressed against the original file) valid without
		// re-mapping after each splice.
		sort.Slice(fs, func(i, j int) bool { return fs[i].Edits[0].Start > fs[j].Edits[0].Start })
		var applied []span
		changed := false
		for _, f := range fs {
			edits := append([]Edit{}, f.Edits...)
			sort.Slice(edits, func(i, j int) bool { return edits[i].Start > edits[j].Start })
			ok := true
			for _, e := range edits {
				if e.File != file || e.Start < 0 || e.End < e.Start || e.End > len(content) {
					ok = false
					break
				}
				for _, s := range applied {
					if e.Start < s.end && s.start < e.End {
						ok = false
						break
					}
				}
				if !ok {
					break
				}
			}
			if !ok {
				continue
			}
			for _, e := range edits {
				content = append(content[:e.Start], append([]byte(e.NewText), content[e.End:]...)...)
				applied = append(applied, span{e.Start, e.End})
			}
			fixed++
			changed = true
		}
		if changed {
			if err := writeFile(file, content); err != nil {
				return fixed, err
			}
		}
	}
	return fixed, nil
}
