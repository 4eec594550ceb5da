package table

import (
	"reflect"
	"strings"
	"testing"
)

type stringerVal struct{}

func (stringerVal) String() string { return "stringer" }

func TestCellFormatting(t *testing.T) {
	t.Parallel()

	tests := []struct {
		in   any
		want string
	}{
		{nil, ""},
		{"text", "text"},
		{stringerVal{}, "stringer"},
		{3, "3"},
		{int64(-9), "-9"},
		{uint64(7), "7"},
		{true, "true"},
		{2.0, "2"},
		{float32(1.5), "1.5"},
		{0.123456, "0.1235"},
		{[]int{1, 2}, "[1 2]"},
	}
	for _, tc := range tests {
		if got := Cell(tc.in); got != tc.want {
			t.Errorf("Cell(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestAddRowArity(t *testing.T) {
	t.Parallel()

	tbl := New("demo", "a", "b")
	if err := tbl.AddRow(1); err == nil {
		t.Error("AddRow with too few values should fail")
	}
	if err := tbl.AddRow(1, 2, 3); err == nil {
		t.Error("AddRow with too many values should fail")
	}
	if err := tbl.AddRow(1, 2); err != nil {
		t.Errorf("AddRow: %v", err)
	}
	if tbl.NumRows() != 1 {
		t.Errorf("NumRows = %d, want 1", tbl.NumRows())
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAddRow should panic on arity mismatch")
		}
	}()
	tbl.MustAddRow(1)
}

func TestAccessors(t *testing.T) {
	t.Parallel()

	cols := []string{"x", "y"}
	tbl := New("title", cols...)
	cols[0] = "mutated"
	tbl.MustAddRow(1, 2)
	tbl.AddNote("a note %d", 7)

	if tbl.Title() != "title" {
		t.Errorf("Title = %q", tbl.Title())
	}
	if tbl.NumRows() != 1 {
		t.Errorf("NumRows = %d, want 1", tbl.NumRows())
	}
	if !reflect.DeepEqual(tbl.columns, []string{"x", "y"}) {
		t.Errorf("columns = %v; New must copy its headers", tbl.columns)
	}
	if !reflect.DeepEqual(tbl.rows, [][]string{{"1", "2"}}) {
		t.Errorf("rows = %v", tbl.rows)
	}
	if !reflect.DeepEqual(tbl.notes, []string{"a note 7"}) {
		t.Errorf("notes = %v", tbl.notes)
	}
}

func TestASCIIRendering(t *testing.T) {
	t.Parallel()

	tbl := New("E0: demo", "algorithm", "time")
	tbl.MustAddRow("known-k", 123)
	tbl.MustAddRow("uniform", 4567)
	tbl.AddNote("seed 1")
	out := tbl.ASCII()

	for _, want := range []string{"E0: demo", "algorithm", "known-k", "4567", "note: seed 1", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("ASCII output missing %q:\n%s", want, out)
		}
	}
	// Columns are aligned: each line that contains data has the time column
	// starting at the same offset.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if idx1, idx2 := strings.Index(lines[1], "time"), strings.Index(lines[3], "123"); idx1 != idx2 {
		t.Errorf("columns misaligned: header at %d, first value at %d\n%s", idx1, idx2, out)
	}
}

func TestMarkdownRendering(t *testing.T) {
	t.Parallel()

	tbl := New("demo", "a", "b")
	tbl.MustAddRow("x", 1)
	tbl.AddNote("footnote")
	out := tbl.Markdown()
	for _, want := range []string{"### demo", "| a | b |", "| --- | --- |", "| x | 1 |", "*footnote*"} {
		if !strings.Contains(out, want) {
			t.Errorf("Markdown missing %q:\n%s", want, out)
		}
	}
}

func TestCSVRendering(t *testing.T) {
	t.Parallel()

	tbl := New("demo", "name", "value")
	tbl.MustAddRow("plain", 1)
	tbl.MustAddRow("with,comma", 2)
	tbl.MustAddRow(`with"quote`, 3)
	out := tbl.CSV()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines, want 4:\n%s", len(lines), out)
	}
	if lines[0] != "name,value" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[2] != `"with,comma",2` {
		t.Errorf("comma row = %q", lines[2])
	}
	if lines[3] != `"with""quote",3` {
		t.Errorf("quote row = %q", lines[3])
	}
}

func TestUntitledTable(t *testing.T) {
	t.Parallel()

	tbl := New("", "only")
	tbl.MustAddRow(1)
	if strings.HasPrefix(tbl.ASCII(), "\n") {
		t.Error("untitled ASCII table should not start with a blank line")
	}
	if strings.Contains(tbl.Markdown(), "###") {
		t.Error("untitled Markdown table should not emit a heading")
	}
}
