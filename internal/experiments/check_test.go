package experiments

import (
	"math"
	"strings"
	"testing"
)

// TestCheckRelations pins the one renderer every verdict and printed
// bound comes from: each relation exactly at, just inside and just
// outside its bound (a range at both ends), no non-finite value ever
// passing, and the printed want carrying the bound Pass used.
func TestCheckRelations(t *testing.T) {
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	down := func(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }
	const lo, hi = 2.5e-6, 40e-6
	for _, tc := range []struct {
		rel      Relation
		v        float64
		pass     bool
		wantText string
	}{
		{AtMost, hi, true, "≤ 40µs"}, {AtMost, down(hi), true, ""}, {AtMost, up(hi), false, ""},
		{Below, hi, false, "< 40µs"}, {Below, down(hi), true, ""}, {Below, up(hi), false, ""},
		{AtLeast, lo, true, "≥ 2.5µs"}, {AtLeast, up(lo), true, ""}, {AtLeast, down(lo), false, ""},
		{Above, lo, false, "> 2.5µs"}, {Above, up(lo), true, ""}, {Above, down(lo), false, ""},
		{Within, lo, true, "∈ [2.5µs, 40µs]"}, {Within, up(lo), true, ""}, {Within, down(lo), false, ""},
		{Within, hi, true, ""}, {Within, down(hi), true, ""}, {Within, up(hi), false, ""},
		{Equals, lo, true, "= 2.5µs"}, {Equals, up(lo), false, ""}, {Equals, down(lo), false, ""},
	} {
		c := Check{Figure: Figure{Name: "x", Value: tc.v, Unit: Seconds}, Rel: tc.rel, Lo: lo, Hi: hi}
		if c.Pass() != tc.pass {
			t.Errorf("relation %d at %v (bounds %v, %v): Pass = %v, want %v", tc.rel, tc.v, lo, hi, c.Pass(), tc.pass)
		}
		if tc.wantText != "" && c.Want() != tc.wantText {
			t.Errorf("relation %d: Want() = %q, want %q", tc.rel, c.Want(), tc.wantText)
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			c.Value = bad
			if c.Pass() {
				t.Errorf("relation %d passes the value %v", tc.rel, bad)
			}
		}
	}

	// Every unit prints the bound it was given, in its own notation.
	for _, tc := range []struct {
		unit  Unit
		bound float64
		text  string
	}{
		{Seconds, 150e-6, "≤ 150µs"},
		{PPM, 0.1e-6, "≤ 0.1 PPM"},
		{Ratio, 0.95, "≤ 0.95×"},
		{Ratio, 1047.3, "≤ 1047×"},
		{Share, 0.0002, "≤ 0.02%"},
		{Count, 512, "≤ 512"},
	} {
		c := Check{Figure: Figure{Value: tc.bound, Unit: tc.unit}, Rel: AtMost, Hi: tc.bound}
		if c.Want() != tc.text || !strings.HasSuffix(tc.text, c.Got()) || !c.Pass() {
			t.Errorf("unit %d: Want() = %q (want %q), Got() = %q, Pass() = %v", tc.unit, c.Want(), tc.text, c.Got(), c.Pass())
		}
	}
}

// TestFigureRendering pins how a figure prints in each unit — the one
// formatter checks print their values and bounds with — and how Render
// lays figures out: one aligned "name  value" line each, in registration
// order, before the check lines.
func TestFigureRendering(t *testing.T) {
	for _, tc := range []struct {
		f    Figure
		text string
	}{
		{Figure{"a duration", 31.3e-6, Seconds}, "31.3µs"},
		{Figure{"a long one", 2 * 86400, Seconds}, "2d"},
		{Figure{"a rate", 0.0153e-6, PPM}, "0.0153 PPM"},
		{Figure{"a quotient", 0.74, Ratio}, "0.74×"},
		{Figure{"a big quotient", 1047.3, Ratio}, "1047×"},
		{Figure{"a share", 0.974, Share}, "97.4%"},
		{Figure{"a count", 113247, Count}, "113247"},
		{Figure{"a flag", 1, Count}, "1"},
	} {
		if got := tc.f.Got(); got != tc.text {
			t.Errorf("%s in unit %d: Got() = %q, want %q", tc.f.Name, tc.f.Unit, got, tc.text)
		}
	}

	r := &Report{ID: "x", Title: "rendering"}
	r.figure("p", 2e-3, Seconds)
	r.figure("τ longer", 0.5, Share)
	r.atMost("bound", 1, 2, Count)
	want := "== x: rendering ==\n" +
		"p         2ms\n" +
		"τ longer  50%\n" +
		"[PASS] bound                                    want ≤ 2                          got 1\n"
	if got := r.Render(); got != want {
		t.Errorf("Render() =\n%s\nwant\n%s", got, want)
	}
}

// TestDuplicateFigurePanics: a figure name is its identity in the
// record, so registering one twice is a programming error.
func TestDuplicateFigurePanics(t *testing.T) {
	r := &Report{ID: "x"}
	r.figure("median", 1, Seconds)
	defer func() {
		if recover() == nil {
			t.Error("a second figure named \"median\" was accepted")
		}
	}()
	r.figure("median", 2, Seconds)
}
