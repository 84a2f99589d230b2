// Package experiment defines the reproduction harness: one registered
// experiment per figure/theorem of the paper, each of which sweeps graph
// sizes, measures broadcast-time distributions for the relevant protocols,
// fits growth shapes, and emits a results table. cmd/experiments renders
// every registered table as markdown (stdout, or its -out file).
package experiment

import (
	"fmt"
	"strings"
)

// Table is one experiment's result: a titled grid plus free-form notes
// (fitted shapes, verdicts, caveats).
type Table struct {
	ID       string
	Title    string
	PaperRef string
	Headers  []string
	Rows     [][]string
	Notes    []string
}

// AddRow appends a row; it must match the header width.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("experiment: row width %d != header width %d in %s", len(cells), len(t.Headers), t.ID))
	}
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a formatted note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	if t.PaperRef != "" {
		fmt.Fprintf(&b, "*Paper reference: %s*\n\n", t.PaperRef)
	}
	b.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if len(t.Notes) > 0 {
		b.WriteString("\n")
		for _, n := range t.Notes {
			fmt.Fprintf(&b, "- %s\n", n)
		}
	}
	return b.String()
}

// CSV renders the table as an RFC-4180-ish CSV (quotes only when needed).
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.Headers)
	for _, row := range t.Rows {
		writeCSVRow(&b, row)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(c, `"`, `""`))
			b.WriteByte('"')
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}
