package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// params is what a workload is asked to do.
type params struct {
	seed    uint64
	seconds float64 // length of the timed window
	traced  bool    // the traced run: per-layer metrics and spans
	setups  int     // how many times to set up; the median is reported
	quick   bool    // smoke test: short trace, token microtimings
	spans   string  // where a traced run writes its spans; "" keeps them in memory only
}

// reported is one named measurement of a run. A value read off N
// pieces or samples carries their median and quartiles, and the highest
// percentile the sample supports, beside it.
type reported struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n,omitempty"`
	Median float64 `json:"median,omitempty"`
	Q1     float64 `json:"q1,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
	TailP  float64 `json:"tail_p,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
}

// check is one correctness gate of a run.
type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Got  string `json:"got"`
}

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload  string     `json:"workload"`
	Seed      uint64     `json:"seed"`
	Seconds   float64    `json:"seconds"`
	Traced    bool       `json:"traced"`
	Quick     bool       `json:"quick,omitempty"`   // a smoke test: -compare sets it aside
	Noisy     bool       `json:"noisy"`             // the harness itself ran late: see noisyRun
	Harness   string     `json:"harness,omitempty"` // what the harness noted about itself, noisy or not
	Correct   bool       `json:"correct"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Checks    []check    `json:"checks"`
	Own       []reported `json:"own,omitempty"`    // the workload's own end-to-end metrics (untraced run)
	Gate      []reported `json:"gate,omitempty"`   // BENCHMARK.json end_to_end (untraced run)
	Layers    []reported `json:"layers,omitempty"` // BENCHMARK.json per_layer (traced run)
	Spans     int        `json:"spans,omitempty"`
}

func (r *runResult) own(name string, v float64) {
	d, ok := findMetric(ownMetrics, name)
	if !ok {
		panic("bench: undeclared end-to-end metric " + name)
	}
	r.Own = append(r.Own, reported{Name: name, Value: v, Unit: d.Unit})
}

// ownMedian reports the median of xs (sorted in place) with its
// quartiles, count and supported tail percentile beside it.
func (r *runResult) ownMedian(name string, xs []float64) {
	s := summarize(xs)
	r.own(name, s.Median)
	r.Own[len(r.Own)-1].describe(s)
}

// ownBest reports the best decile of the pieces xs (sorted in place),
// with their median, quartiles and count beside it.
func (r *runResult) ownBest(name string, xs []float64) {
	d, _ := findMetric(ownMetrics, name)
	r.ownWith(name, best(xs, d.Better == "lower"), xs)
}

// ownWith reports v, with the median, quartiles and count of the
// pieces xs (sorted in place) beside it.
func (r *runResult) ownWith(name string, v float64, xs []float64) {
	r.own(name, v)
	r.Own[len(r.Own)-1].describe(summarize(xs))
}

func (m *reported) describe(s summary) {
	m.N, m.Median, m.Q1, m.Q3, m.TailP, m.Tail = s.N, s.Median, s.Q1, s.Q3, s.TailP, s.Tail
}

func (r *runResult) layer(name string, v float64) {
	if _, ok := findMetric(layerMetrics, name); !ok {
		panic("bench: undeclared per-layer metric " + name)
	}
	for i := range r.Layers {
		if r.Layers[i].Name == name {
			r.Layers[i].Value = v
			return
		}
	}
	panic("bench: per-layer metric " + name + " not initialised")
}

func (r *runResult) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Got: fmt.Sprintf(format, args...)})
}

func lookup(ms []reported, name string) (reported, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return reported{}, false
}

// finish derives what every run derives the same way: the gate metrics
// from the workload's own, the verdict from the checks, and the rule
// that no reported number may be NaN or Inf.
func (r *runResult) finish() {
	if r.Traced {
		r.Own = nil
	} else {
		for _, d := range gateMetrics {
			src, scale := d.Name, 1.0
			if from, ok := gateFrom[r.Workload][d.Name]; ok {
				src, scale = from.own, from.scale
			}
			m, ok := lookup(r.Own, src)
			r.check("gate."+d.Name, ok && m.Value > 0, "%s = %v", src, m.Value)
			r.Gate = append(r.Gate, reported{Name: d.Name, Value: m.Value * scale, Unit: d.Unit})
		}
	}
	allFinite := true
	for _, ms := range [][]reported{r.Own, r.Gate, r.Layers} {
		for _, m := range ms {
			allFinite = allFinite && finite(m.Value, m.Median, m.Q1, m.Q3, m.Tail)
		}
	}
	r.check("no NaN or Inf in any metric", allFinite, "%v", allFinite)
	r.check("attempted at least one operation", r.Attempted >= 1, "%d", r.Attempted)
	r.Correct = true
	for _, c := range r.Checks {
		r.Correct = r.Correct && c.OK
	}
}

// newResult starts a result; a traced run's per-layer metrics all
// start at 0, the value a bypassed layer keeps.
func newResult(workload string, p params) *runResult {
	r := &runResult{Workload: workload, Seed: p.seed, Seconds: p.seconds, Traced: p.traced, Quick: p.quick}
	if p.traced {
		for _, d := range layerMetrics {
			r.Layers = append(r.Layers, reported{Name: d.Name, Unit: d.Unit})
		}
	}
	return r
}

// print writes the human-readable report of a run.
func (r *runResult) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed %d  window %.3g s  traced %v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	row := func(m reported) {
		fmt.Fprintf(w, "  %-30s %14.6g %-8s", m.Name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " median %.6g  q1 %.6g  q3 %.6g  n %d", m.Median, m.Q1, m.Q3, m.N)
			if m.TailP > 0 {
				fmt.Fprintf(w, "  p%g %.6g", m.TailP, m.Tail)
			}
		}
		fmt.Fprintln(w)
	}
	for _, m := range r.Own {
		row(m)
	}
	if len(r.Gate) > 0 {
		fmt.Fprintln(w, "  -- as BENCHMARK.json end_to_end")
		for _, m := range r.Gate {
			row(m)
		}
	}
	for _, m := range r.Layers {
		row(m)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  noisy %v %s\n", r.Attempted, r.Failed, r.Noisy, r.Harness)
	for _, c := range r.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  [%s] %s: %s\n", verdict, c.Name, c.Got)
	}
}

// driverLine is the last line of a run's standard output, in the form
// the driver of BENCHMARK.json reads.
func (r *runResult) driverLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	ms := r.Gate
	if r.Traced {
		ms = r.Layers
	}
	for _, m := range ms {
		out.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		// Only a NaN or Inf value can fail to marshal, and finish has
		// already failed the run for one.
		return `{"correct":false,"attempted":1,"failed":1,"metrics":{}}`
	}
	return string(b)
}

// resultFile is what -out writes and -compare reads: the machine the
// runs were taken on and every run.
type resultFile struct {
	Machine machine     `json:"machine"`
	Runs    []runResult `json:"runs"`
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func writeResultFile(path string, rf *resultFile) error {
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
