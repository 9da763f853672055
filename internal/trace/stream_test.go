package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriterMatchesTable: the row-streaming writer's output must be
// byte-identical to Table.WriteTSV for the same data.
func TestWriterMatchesTable(t *testing.T) {
	rows := [][]float64{
		{0, -31.2e-6, 0.89e-3},
		{16, 1.8226381e-09, 0.91e-3},
		{32, 123456.789012, -3.1e-05},
	}
	tab := NewTable("t", "offset", "rtt")
	for _, r := range rows {
		if err := tab.Append(r...); err != nil {
			t.Fatal(err)
		}
	}
	var batch bytes.Buffer
	if err := tab.WriteTSV(&batch); err != nil {
		t.Fatal(err)
	}

	var streamed bytes.Buffer
	w, err := NewWriter(&streamed, "t", "offset", "rtt")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := w.Append(r...); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Len() != len(rows) {
		t.Errorf("Len = %d, want %d", w.Len(), len(rows))
	}
	if !bytes.Equal(streamed.Bytes(), batch.Bytes()) {
		t.Errorf("streamed output differs from batch:\n%q\nvs\n%q", streamed.Bytes(), batch.Bytes())
	}
}

func TestWriterArityAndValidation(t *testing.T) {
	if _, err := NewWriter(&bytes.Buffer{}); err == nil {
		t.Error("writer with no columns accepted")
	}
	w, err := NewWriter(&bytes.Buffer{}, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1); err == nil {
		t.Error("short row accepted")
	}
	if err := w.Append(1, 2, 3); err == nil {
		t.Error("long row accepted")
	}
}

// TestCreateStreamsToDisk: Create opens nested directories, rows stream
// through, and the file holds the header and every row.
func TestCreateStreamsToDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nested", "series.tsv")
	w, err := Create(path, "t_s", "err_us")
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	for i := 0; i < n; i++ {
		if err := w.Append(float64(i)*16, float64(i%97)-48); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	if len(lines) != n+2 || lines[0] != "t_s\terr_us" || lines[n+1] != "" {
		t.Fatalf("%d lines, header %q", len(lines), lines[0])
	}
	if last := lines[n]; last != "159984\t-40" {
		t.Errorf("last row %q", last)
	}
}

func TestCreateBadPath(t *testing.T) {
	dir := t.TempDir()
	// A file where a directory is needed.
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(filepath.Join(blocker, "sub", "out.tsv"), "a"); err == nil {
		t.Error("create under a file accepted")
	}
	if !strings.HasSuffix(blocker, "blocker") {
		t.Fatal("sanity")
	}
}
