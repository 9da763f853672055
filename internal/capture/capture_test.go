package capture

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
	"repro/internal/timebase"
)

// sampleScenario is an hour of 16 s polls with 5 % loss.
func sampleScenario() sim.MultiScenario {
	sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, timebase.Hour, 5)
	sc.LossProb = 0.05
	return sc
}

// TestRoundTripFile: every exchange a stream emits reads back equal to
// itself, and each takes 64 bytes after the header.
func TestRoundTripFile(t *testing.T) {
	sc := sampleScenario()
	st, err := sim.NewMultiStream(sc)
	if err != nil {
		t.Fatal(err)
	}
	// CreateFile makes the missing parent directory.
	path := filepath.Join(t.TempDir(), "new", "trace.tsctrc")
	meta := Meta{Name: sc.Name, PollPeriod: sc.PollPeriod, Seed: sc.Seed, Comment: "unit test"}
	w, err := CreateFile(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []sim.Exchange
	for e, ok := st.Next(); ok; e, ok = st.Next() {
		if err := w.Write(e.Exchange); err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, e.Exchange)
	}
	if w.Count() != len(streamed) {
		t.Fatalf("wrote %d records, the stream emitted %d", w.Count(), len(streamed))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Meta(); got != meta {
		t.Errorf("meta = %+v, want %+v", got, meta)
	}
	for i, e := range streamed {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec != e {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, rec, e)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after %d records: %v, want io.EOF", len(streamed), err)
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(Magic) + 4 + len(mb) + 64*len(streamed)); fi.Size() != want {
		t.Errorf("file is %d bytes, want the header plus 64 per record: %d", fi.Size(), want)
	}
}

func TestLostFlagPreserved(t *testing.T) {
	tr, err := sim.Generate(sampleScenario())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	for _, e := range tr.Exchanges {
		if e.Lost {
			lost++
		}
		if err := w.Write(e.Exchange); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if lost == 0 {
		t.Fatal("trace has no losses to test")
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gotLost := 0
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Lost {
			gotLost++
		}
	}
	if gotLost != lost {
		t.Errorf("lost flags: %d, want %d", gotLost, lost)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACE..."))); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestTruncatedRecordDetected(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{Name: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Record{Seq: 0, Ta: 1, Tf: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	r, err := NewReader(bytes.NewReader(full[:len(full)-5]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Error("truncated record not detected")
	}
}

func TestEmptyCapture(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{Name: "empty"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("empty capture Next = %v, want EOF", err)
	}
}

func TestImplausibleMetaRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(Magic)
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff}) // 4 GiB meta
	if _, err := NewReader(&buf); err == nil {
		t.Error("huge meta length accepted")
	}
}

func BenchmarkWrite(b *testing.B) {
	rec := Record{Seq: 1, Ta: 1 << 40, Tf: 1<<40 + 500000, Tb: 1e6, Te: 1e6 + 2e-5,
		Tg: 1e6 + 4e-4, TrueTa: 1e6 - 4e-4, TrueTf: 1e6 + 4e-4}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{Name: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(rec); err != nil {
			b.Fatal(err)
		}
		if buf.Len() > 1<<24 {
			b.StopTimer()
			buf.Reset()
			b.StartTimer()
		}
	}
}

// failingCloser is a destination whose every write fails; it records
// whether it was closed.
type failingCloser struct{ closed bool }

var errDiskFull = errors.New("disk full")

func (f *failingCloser) Write([]byte) (int, error) { return 0, errDiskFull }
func (f *failingCloser) Close() error              { f.closed = true; return nil }

// TestCloseReleasesOnFlushError: when the final flush fails, Close
// still closes the destination — a file is never left open — and
// reports the flush's error.
func TestCloseReleasesOnFlushError(t *testing.T) {
	dst := &failingCloser{}
	w, err := NewWriter(dst, Meta{Name: "doomed"})
	if err != nil {
		t.Fatal(err) // the header is buffered, so no write has happened yet
	}
	if err := w.Close(); !errors.Is(err, errDiskFull) {
		t.Errorf("Close = %v, want the flush error %v", err, errDiskFull)
	}
	if !dst.closed {
		t.Error("Close left the destination open after the flush failed")
	}
}
