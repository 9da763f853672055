package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strconv"
)

// AccuracyJSON renders reports as the evaluation's accuracy record, one
// entry per experiment: every figure in registration order (its exact
// value — the shortest decimal that parses back to the same float64 —
// and its printed value), every check (exact value and bounds, the
// printed relation, bound and unit, and the verdict), and each table's
// row count and TSV sha256. `cmd/experiments -out DIR`
// writes it as DIR/accuracy.json; the `-run all` one is committed as
// testdata/accuracy.json.
func AccuracyJSON(reps []*Report) []byte {
	recs := make([]accuracy, len(reps))
	for i, r := range reps {
		recs[i] = accuracyOf(r)
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", " ")
	_ = enc.Encode(recs) // strings, bools and a string map always encode
	return b.Bytes()
}

type accuracy struct {
	ID      string
	Figures []figureRecord
	Checks  []checkRecord
	Tables  map[string]string
}

type figureRecord struct{ Name, Value, Printed string }

type checkRecord struct {
	Name, Value, Want, Lo, Hi string
	Pass                      bool
}

func accuracyOf(r *Report) accuracy {
	exact := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	a := accuracy{ID: r.ID, Figures: make([]figureRecord, len(r.Figures)), Tables: map[string]string{}}
	for i, f := range r.Figures {
		a.Figures[i] = figureRecord{f.Name, exact(f.Value), f.Got()}
	}
	for _, c := range r.Checks {
		a.Checks = append(a.Checks, checkRecord{c.Name, exact(c.Value), c.Want(), exact(c.Lo), exact(c.Hi), c.Pass()})
	}
	for name, t := range r.Tables {
		h := sha256.New()
		_ = t.WriteTSV(h) // writes to a hash cannot fail
		a.Tables[name] = fmt.Sprintf("%d rows, sha256 %x", t.Len(), h.Sum(nil))
	}
	return a
}
