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
// resident. Rows it writes are byte-identical to Table.WriteTSV's.
type Writer struct {
	columns int
	bw      *bufio.Writer
	c       io.Closer
	n       int
}

// NewWriter writes the header line to w and returns a row writer. If w
// is also an io.Closer, Close will close it.
func NewWriter(w io.Writer, columns ...string) (*Writer, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("trace: writer needs at least one column")
	}
	bw := bufio.NewWriter(w)
	if err := writeRowStrings(bw, columns); err != nil {
		return nil, err
	}
	sw := &Writer{columns: len(columns), bw: bw}
	if c, ok := w.(io.Closer); ok {
		sw.c = c
	}
	return sw, nil
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
	w, err := NewWriter(f, columns...)
	if err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// Append writes one row; the value count must match the column count.
func (w *Writer) Append(values ...float64) error {
	if len(values) != w.columns {
		return fmt.Errorf("trace: row has %d values, writer has %d columns", len(values), w.columns)
	}
	if err := writeRowFloats(w.bw, values); err != nil {
		return err
	}
	w.n++
	return nil
}

// Len returns the number of rows written.
func (w *Writer) Len() int { return w.n }

// Close flushes buffered rows and closes the underlying writer when it
// is closable.
func (w *Writer) Close() error {
	if err := w.bw.Flush(); err != nil {
		if w.c != nil {
			w.c.Close()
		}
		return err
	}
	if w.c != nil {
		return w.c.Close()
	}
	return nil
}

// writeRowStrings emits one tab-separated line of strings.
func writeRowStrings(bw *bufio.Writer, fields []string) error {
	for i, f := range fields {
		if i > 0 {
			if err := bw.WriteByte('\t'); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString(f); err != nil {
			return err
		}
	}
	return bw.WriteByte('\n')
}

// writeRowFloats emits one tab-separated line of formatted floats.
func writeRowFloats(bw *bufio.Writer, values []float64) error {
	for i, v := range values {
		if i > 0 {
			if err := bw.WriteByte('\t'); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', 12, 64)); err != nil {
			return err
		}
	}
	return bw.WriteByte('\n')
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

// Append adds one row; the value count must match the column count.
func (t *Table) Append(values ...float64) error {
	if len(values) != len(t.columns) {
		return fmt.Errorf("trace: row has %d values, table has %d columns", len(values), len(t.columns))
	}
	t.rows = append(t.rows, append([]float64(nil), values...))
	return nil
}

// Row returns row i (borrowed, do not mutate).
func (t *Table) Row(i int) []float64 { return t.rows[i] }

// WriteTSV streams the table as tab-separated values with a header line.
func (t *Table) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := writeRowStrings(bw, t.columns); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := writeRowFloats(bw, row); err != nil {
			return err
		}
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
