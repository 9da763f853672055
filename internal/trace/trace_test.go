package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTableRoundTrip(t *testing.T) {
	tab := NewTable("t", "offset_us", "rtt_ms")
	if err := tab.Append(0, -31.2, 0.89); err != nil {
		t.Fatal(err)
	}
	if err := tab.Append(16, -29.8, 0.91); err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 || tab.Row(1)[1] != -29.8 {
		t.Fatalf("len %d, row 1 %v", tab.Len(), tab.Row(1))
	}
	if cols := tab.columns; len(cols) != 3 || cols[1] != "offset_us" {
		t.Fatalf("columns = %v", cols)
	}
	var buf bytes.Buffer
	if err := tab.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "t\toffset_us\trtt_ms\n0\t-31.2\t0.89\n16\t-29.8\t0.91\n"; buf.String() != want {
		t.Errorf("TSV %q, want %q", buf.String(), want)
	}
}

func TestAppendArityChecked(t *testing.T) {
	tab := NewTable("a", "b")
	if err := tab.Append(1); err == nil {
		t.Error("short row accepted")
	}
	if err := tab.Append(1, 2, 3); err == nil {
		t.Error("long row accepted")
	}
}

func TestSaveTSVCreatesDirs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nested", "deep", "out.tsv")
	tab := NewTable("x")
	if err := tab.Append(42); err != nil {
		t.Fatal(err)
	}
	if err := tab.SaveTSV(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "x\n42") {
		t.Errorf("file contents %q", data)
	}
}

func TestPrecisionPreserved(t *testing.T) {
	tab := NewTable("v")
	vals := []float64{-3.1e-05, 1.8226381e-09, 123456.789012}
	for _, v := range vals {
		if err := tab.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := tab.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	// Twelve significant digits: every value here is written exactly.
	if want := "v\n-3.1e-05\n1.8226381e-09\n123456.789012\n"; buf.String() != want {
		t.Errorf("TSV %q, want %q", buf.String(), want)
	}
}
