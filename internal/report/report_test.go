package report

import (
	"strings"
	"testing"
)

func TestTableText(t *testing.T) {
	tb := NewTable("Title", "env", "frel", "power")
	tb.AddRow("TS", "0.93", "20.1")
	tb.AddRow("TS+ASV", "1.15", "26.2")
	var sb strings.Builder
	if err := tb.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if lines[0] != "Title" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "env") || !strings.Contains(lines[1], "frel") {
		t.Errorf("header line = %q", lines[1])
	}
	// Columns align: "frel" and "0.93" start at the same offset.
	if strings.Index(lines[1], "frel") != strings.Index(lines[2], "0.93") {
		t.Error("columns not aligned")
	}
}

func TestTableAddRowF(t *testing.T) {
	tb := NewTable("", "name", "v", "n")
	tb.AddRowF(3, "x", 1.23456, 42)
	var sb strings.Builder
	if err := tb.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "1.235") || !strings.Contains(sb.String(), "42") {
		t.Errorf("formatted row wrong:\n%s", sb.String())
	}
}

func TestTableRowWidthNormalization(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("only-one")    // short row: padded
	tb.AddRow("x", "y", "z") // long row: truncated
	var sb strings.Builder
	if err := tb.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "z") {
		t.Error("overflow cell should be dropped")
	}
}
