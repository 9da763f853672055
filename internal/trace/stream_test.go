package trace

import (
	"bytes"
	"errors"
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
		tab.Append(r...)
	}
	var batch bytes.Buffer
	if err := tab.WriteTSV(&batch); err != nil {
		t.Fatal(err)
	}

	var streamed bytes.Buffer
	w := NewWriter(&streamed, "t", "offset", "rtt")
	for _, r := range rows {
		w.Append(r...)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), batch.Bytes()) {
		t.Errorf("streamed output differs from batch:\n%q\nvs\n%q", streamed.Bytes(), batch.Bytes())
	}
}

func TestWriterArityAndValidation(t *testing.T) {
	mustPanic(t, "writer with no columns", func() { NewWriter(&bytes.Buffer{}) })
	var buf bytes.Buffer
	w := NewWriter(&buf, "a", "b")
	mustPanic(t, "short row", func() { w.Append(1) })
	mustPanic(t, "long row", func() { w.Append(1, 2, 3) })
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "a\tb\n" {
		t.Errorf("rejected rows written: %q", buf.String())
	}
}

// failWriter accepts n bytes, then fails every write.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		k := f.n
		f.n = 0
		return k, errors.New("disk full")
	}
	f.n -= len(p)
	return len(p), nil
}

// TestWriterKeepsWriteError: a write error is not lost between Appends
// that return nothing; Close reports it.
func TestWriterKeepsWriteError(t *testing.T) {
	w := NewWriter(&failWriter{n: 10}, "t_s", "err_us")
	for i := 0; i < 10000; i++ {
		w.Append(float64(i), 1)
	}
	if err := w.Close(); err == nil || err.Error() != "disk full" {
		t.Errorf("Close = %v, want the write error", err)
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
		w.Append(float64(i)*16, float64(i%97)-48)
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
