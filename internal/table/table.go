// Package table holds the small tabular-report model used by the experiment
// harness and the command-line tools: named columns, typed-ish cells
// (everything is formatted to strings on insertion), and renderers for
// aligned ASCII, Markdown and CSV.
package table

import (
	"fmt"
	"strconv"
	"strings"
)

// Table is a simple column-oriented table.
type Table struct {
	title   string
	columns []string
	rows    [][]string
	notes   []string
}

// New returns an empty table with the given title and column headers.
func New(title string, columns ...string) *Table {
	return &Table{title: title, columns: append([]string(nil), columns...)}
}

// Title returns the table title.
func (t *Table) Title() string { return t.title }

// NumRows returns the number of rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

// AddRow appends a row. Values are formatted with Cell; the number of values
// must match the number of columns.
func (t *Table) AddRow(values ...any) error {
	if len(values) != len(t.columns) {
		return fmt.Errorf("table: row has %d values, want %d", len(values), len(t.columns))
	}
	row := make([]string, len(values))
	for i, v := range values {
		row[i] = Cell(v)
	}
	t.rows = append(t.rows, row)
	return nil
}

// MustAddRow is AddRow that panics on a column-count mismatch; experiment
// code builds rows with statically known arity.
func (t *Table) MustAddRow(values ...any) {
	if err := t.AddRow(values...); err != nil {
		panic(err)
	}
}

// AddNote attaches a free-form footnote rendered after the table body.
func (t *Table) AddNote(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// Cell formats a single value for inclusion in a table.
func Cell(v any) string {
	switch x := v.(type) {
	case nil:
		return ""
	case string:
		return x
	case fmt.Stringer:
		return x.String()
	case float64:
		return formatFloat(x)
	case float32:
		return formatFloat(float64(x))
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case uint64:
		return strconv.FormatUint(x, 10)
	case bool:
		return strconv.FormatBool(x)
	default:
		return fmt.Sprint(v)
	}
}

// formatFloat renders floats compactly: integers without a decimal point,
// everything else with four significant digits.
func formatFloat(f float64) string {
	if f == float64(int64(f)) && f < 1e15 && f > -1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', 4, 64)
}

// ASCII renders the table as an aligned plain-text block.
func (t *Table) ASCII() string {
	widths := make([]int, len(t.columns))
	for i, c := range t.columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}

	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "%s\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.columns)
	sep := make([]string, len(t.columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	for _, n := range t.notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavoured Markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.title)
	}
	b.WriteString("| " + strings.Join(t.columns, " | ") + " |\n")
	sep := make([]string, len(t.columns))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (RFC 4180 quoting for cells
// containing commas, quotes or newlines). Notes are omitted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(csvEscape(cell))
		}
		b.WriteString("\n")
	}
	writeRow(t.columns)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
}
