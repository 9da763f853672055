// Package trace provides lightweight tabular export of experiment
// artifacts: every regenerated table and figure series can be written as
// TSV for external plotting, mirroring how the paper's own data products
// (offset error series, Allan curves, sensitivity sweeps) would be
// shared.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// Writer streams rows of float64 columns as TSV: header on creation,
// one line per Append, buffered through to the underlying writer. It
// never buffers rows, so a multi-week series writes in constant memory
// — the streaming counterpart of Table for data too long to hold
// resident. Rows it writes are byte-identical to Table.WriteTSV's. A
// write error is kept and returned by Close, as bufio.Writer does.
type Writer struct {
	columns int
	bw      *bufio.Writer
	c       io.Closer
}

// NewWriter writes the header line to w and returns a row writer. If w
// is also an io.Closer, Close will close it. It panics on no columns.
func NewWriter(w io.Writer, columns ...string) *Writer {
	if len(columns) == 0 {
		panic("trace: writer needs at least one column")
	}
	bw := bufio.NewWriter(w)
	writeRowStrings(bw, columns)
	sw := &Writer{columns: len(columns), bw: bw}
	if c, ok := w.(io.Closer); ok {
		sw.c = c
	}
	return sw
}

// Create opens (creating parent directories) a file at path and returns
// a Writer whose Close closes the file.
func Create(path string, columns ...string) (*Writer, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewWriter(f, columns...), nil
}

// Append writes one row. The value count must match the column count:
// a mismatch is a programming error and panics.
func (w *Writer) Append(values ...float64) {
	checkArity(len(values), w.columns)
	writeRowFloats(w.bw, values)
}

// Close flushes buffered rows and closes the underlying writer when it
// is closable. It returns the first error any write met.
func (w *Writer) Close() error {
	err := w.bw.Flush()
	if w.c != nil {
		if cerr := w.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

func checkArity(values, columns int) {
	if values != columns {
		panic(fmt.Sprintf("trace: row has %d values, want %d columns", values, columns))
	}
}

// writeRowStrings emits one tab-separated line of strings. A
// bufio.Writer's error is sticky, so the caller's Flush reports it.
func writeRowStrings(bw *bufio.Writer, fields []string) {
	for i, f := range fields {
		if i > 0 {
			bw.WriteByte('\t')
		}
		bw.WriteString(f)
	}
	bw.WriteByte('\n')
}

// writeRowFloats emits one tab-separated line of formatted floats;
// errors surface at Flush, as for writeRowStrings.
func writeRowFloats(bw *bufio.Writer, values []float64) {
	for i, v := range values {
		if i > 0 {
			bw.WriteByte('\t')
		}
		bw.WriteString(strconv.FormatFloat(v, 'g', 12, 64))
	}
	bw.WriteByte('\n')
}

// Table is a column-ordered set of float64 series with a shared length.
type Table struct {
	columns []string
	rows    [][]float64
}

// NewTable creates a table with the given column names.
func NewTable(columns ...string) *Table {
	return &Table{columns: append([]string(nil), columns...)}
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Append adds one row. The value count must match the column count:
// a mismatch is a programming error and panics.
func (t *Table) Append(values ...float64) {
	checkArity(len(values), len(t.columns))
	t.rows = append(t.rows, append([]float64(nil), values...))
}

// Row returns row i (borrowed, do not mutate).
func (t *Table) Row(i int) []float64 { return t.rows[i] }

// WriteTSV streams the table as tab-separated values with a header line.
func (t *Table) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	writeRowStrings(bw, t.columns)
	for _, row := range t.rows {
		writeRowFloats(bw, row)
	}
	return bw.Flush()
}

// SaveTSV writes the table to a file, creating parent directories.
func (t *Table) SaveTSV(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteTSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
