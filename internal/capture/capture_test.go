package capture

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/sim"
	"repro/internal/timebase"
)

func sampleTrace(t *testing.T) *sim.Trace {
	t.Helper()
	sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, timebase.Hour, 5)
	sc.LossProb = 0.05
	tr, err := sim.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRoundTripFile(t *testing.T) {
	tr := sampleTrace(t)
	// CreateFile makes the missing parent directory.
	path := filepath.Join(t.TempDir(), "new", "trace.tsctrc")
	w, err := CreateFile(path, Meta{
		Name:       tr.Scenario.Name,
		PollPeriod: tr.Scenario.PollPeriod,
		Seed:       tr.Scenario.Seed,
		Comment:    "unit test",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Exchanges {
		if err := w.WriteExchange(e); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != len(tr.Exchanges) {
		t.Fatalf("wrote %d records, trace has %d", w.Count(), len(tr.Exchanges))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	meta, recs, err := LoadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Name != tr.Scenario.Name || meta.PollPeriod != 16 ||
		meta.Seed != 5 || meta.Comment != "unit test" {
		t.Errorf("meta = %+v", meta)
	}
	if len(recs) != len(tr.Exchanges) {
		t.Fatalf("read %d records", len(recs))
	}
	for i, e := range tr.Exchanges {
		got := recs[i]
		want := fromExchange(e)
		if got != want {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestLostFlagPreserved(t *testing.T) {
	tr := sampleTrace(t)
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
		if err := w.Write(fromExchange(e)); err != nil {
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
