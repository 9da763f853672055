// Package capture defines a compact binary on-disk format for exchange
// traces, mirroring how the paper's authors collected months of raw
// timestamp data and post-processed it offline. A capture file carries a
// JSON metadata header (scenario description, free-form) followed by
// fixed-width binary exchange records, so multi-month traces stream in
// constant memory and survive partial writes (truncated tails are
// detected).
//
// Format:
//
//	magic   "TSCTRC01"              8 bytes
//	metaLen uint32 little-endian    4 bytes
//	meta    JSON                    metaLen bytes
//	records                         72 bytes each
//
// Record layout (little-endian):
//
//	seq    uint32   flags  uint32 (bit 0: lost)
//	ta     uint64   tf     uint64
//	tb     float64  te     float64
//	tg     float64  trueTa float64  trueTf float64
//
// Reference oracle fields beyond Tg are not stored: captures are meant
// to be replayable through the estimators and scored against Tg, exactly
// like the paper's DAG-verified datasets.
package capture

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/sim"
)

// Magic identifies capture files.
const Magic = "TSCTRC01"

// recordSize is the fixed width of one exchange record.
const recordSize = 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 8

const flagLost = 1 << 0

// Meta is the capture header. Fields are free-form but these are the
// ones the bundled tools read and write.
type Meta struct {
	Name       string  `json:"name"`
	PollPeriod float64 `json:"poll_period_s"`
	Duration   float64 `json:"duration_s"`
	Seed       uint64  `json:"seed"`
	NominalHz  float64 `json:"nominal_hz"`
	Comment    string  `json:"comment,omitempty"`
}

// Record is one stored exchange: the raw data plus the DAG reference
// stamp and oracle endpoints needed to score estimators.
type Record struct {
	Seq    uint32
	Lost   bool
	Ta, Tf uint64
	Tb, Te float64
	Tg     float64
	TrueTa float64
	TrueTf float64
}

// fromExchange converts a simulation exchange.
func fromExchange(e sim.Exchange) Record {
	return Record{
		Seq: uint32(e.Seq), Lost: e.Lost,
		Ta: e.Ta, Tf: e.Tf, Tb: e.Tb, Te: e.Te,
		Tg: e.Tg, TrueTa: e.TrueTa, TrueTf: e.TrueTf,
	}
}

// Writer streams records to a capture file.
type Writer struct {
	w   *bufio.Writer
	c   io.Closer
	n   int
	buf [recordSize]byte
}

// NewWriter writes the header to w and returns a record writer. If w is
// also an io.Closer, Close will close it.
func NewWriter(w io.Writer, meta Meta) (*Writer, error) {
	mb, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("capture: marshal meta: %w", err)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(Magic); err != nil {
		return nil, err
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(mb)))
	if _, err := bw.Write(lenBuf[:]); err != nil {
		return nil, err
	}
	if _, err := bw.Write(mb); err != nil {
		return nil, err
	}
	cw := &Writer{w: bw}
	if c, ok := w.(io.Closer); ok {
		cw.c = c
	}
	return cw, nil
}

// Write appends one record.
func (w *Writer) Write(r Record) error {
	b := w.buf[:]
	binary.LittleEndian.PutUint32(b[0:], r.Seq)
	var flags uint32
	if r.Lost {
		flags |= flagLost
	}
	binary.LittleEndian.PutUint32(b[4:], flags)
	binary.LittleEndian.PutUint64(b[8:], r.Ta)
	binary.LittleEndian.PutUint64(b[16:], r.Tf)
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(r.Tb))
	binary.LittleEndian.PutUint64(b[32:], math.Float64bits(r.Te))
	binary.LittleEndian.PutUint64(b[40:], math.Float64bits(r.Tg))
	binary.LittleEndian.PutUint64(b[48:], math.Float64bits(r.TrueTa))
	binary.LittleEndian.PutUint64(b[56:], math.Float64bits(r.TrueTf))
	if _, err := w.w.Write(b); err != nil {
		return err
	}
	w.n++
	return nil
}

// WriteExchange appends one simulation exchange: the streaming entry
// point for trace generation, which converts and writes records one at
// a time so multi-week captures never hold a trace in memory.
func (w *Writer) WriteExchange(e sim.Exchange) error {
	return w.Write(fromExchange(e))
}

// CreateFile opens (creating parent directories) a capture file at path
// and returns a record writer whose Close closes the file.
func CreateFile(path string, meta Meta) (*Writer, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w, err := NewWriter(f, meta)
	if err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// Count returns the number of records written.
func (w *Writer) Count() int { return w.n }

// Close flushes and closes the underlying writer when it is closable —
// also when the flush failed, so the file is never left open — and
// returns the first error.
func (w *Writer) Close() error {
	err := w.w.Flush()
	if w.c != nil {
		if cerr := w.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Reader streams records from a capture file.
type Reader struct {
	r    *bufio.Reader
	meta Meta
	buf  [recordSize]byte
}

// NewReader validates the header and returns a record reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("capture: read magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("capture: bad magic %q", magic)
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("capture: read meta length: %w", err)
	}
	metaLen := binary.LittleEndian.Uint32(lenBuf[:])
	if metaLen > 1<<20 {
		return nil, fmt.Errorf("capture: implausible meta length %d", metaLen)
	}
	mb := make([]byte, metaLen)
	if _, err := io.ReadFull(br, mb); err != nil {
		return nil, fmt.Errorf("capture: read meta: %w", err)
	}
	var meta Meta
	if err := json.Unmarshal(mb, &meta); err != nil {
		return nil, fmt.Errorf("capture: parse meta: %w", err)
	}
	return &Reader{r: br, meta: meta}, nil
}

// Meta returns the capture header.
func (r *Reader) Meta() Meta { return r.meta }

// Next returns the next record, or io.EOF at a clean end of file. A
// truncated trailing record yields io.ErrUnexpectedEOF.
func (r *Reader) Next() (Record, error) {
	b := r.buf[:]
	if _, err := io.ReadFull(r.r, b); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("capture: truncated record: %w", io.ErrUnexpectedEOF)
	}
	flags := binary.LittleEndian.Uint32(b[4:])
	return Record{
		Seq:    binary.LittleEndian.Uint32(b[0:]),
		Lost:   flags&flagLost != 0,
		Ta:     binary.LittleEndian.Uint64(b[8:]),
		Tf:     binary.LittleEndian.Uint64(b[16:]),
		Tb:     math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
		Te:     math.Float64frombits(binary.LittleEndian.Uint64(b[32:])),
		Tg:     math.Float64frombits(binary.LittleEndian.Uint64(b[40:])),
		TrueTa: math.Float64frombits(binary.LittleEndian.Uint64(b[48:])),
		TrueTf: math.Float64frombits(binary.LittleEndian.Uint64(b[56:])),
	}, nil
}

// LoadAll reads every record from path.
func LoadAll(path string) (Meta, []Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return Meta{}, nil, err
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		return Meta{}, nil, err
	}
	var recs []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return r.Meta(), recs, nil
		}
		if err != nil {
			return r.Meta(), recs, err
		}
		recs = append(recs, rec)
	}
}
