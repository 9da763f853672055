// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment builds its workload with internal/sim,
// runs the algorithms of internal/core (and internal/swntp for the
// baseline), and reports the numbers, rows or series the paper reports,
// together with shape checks: who wins, by roughly what factor, where
// the crossovers fall. Absolute numbers differ from the paper's testbed;
// `cmd/experiments -list` names what each item reproduces.
//
// Every reported number is data (Figure: a name, a value, a unit), every
// check is a figure plus its bound and relation (Check), and one
// formatter prints both. Every error against ground truth comes from one
// scorer per clock kind (offsetErrOf for an engine, clockErr for an
// ensemble), and every run goes through one harness per clock kind
// (streamRun, ensembleRun): generate → estimator → per-exchange callback.
//
// Run owns each report's whole life: it builds the Report, hands it to
// the experiment, closes every series the experiment opened (also when
// it fails) and writes every table to Options.OutputDir. It is the one
// place artifacts are written; an experiment only registers them
// (Report.table, Report.series), its figures and its checks, and keeps
// its computation.
//
// Run from the command line with `go run ./cmd/experiments -run fig12`;
// TestAllExperimentsQuick runs the whole sweep under `go test`.
//
//repro:deterministic
package experiments

import (
	"fmt"
	"path/filepath"
	"strings"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/ensemble"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timebase"
	"repro/internal/trace"
)

// Options control experiment execution.
type Options struct {
	// Seed selects the deterministic realization; 0 means the default.
	Seed uint64
	// Quick shrinks trace durations ~8x for CI and quick runs. The
	// shapes under test survive; the statistics get noisier.
	Quick bool
	// OutputDir, when non-empty, receives one TSV per table of the
	// report, DIR/<id>_<name>.tsv. Streamed series write row by row as
	// the experiment runs; only a bounded decimated preview is kept in
	// memory, for the report. When empty, a run writes no file.
	OutputDir string
	// LongRunDays overrides the longrun experiment's trace length in
	// days (0 = the default 21; Quick scaling still applies).
	LongRunDays float64
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 20041025 // the paper's presentation date at IMC'04
	}
	return o.Seed
}

// scale shrinks a duration in Quick mode, with a floor to keep windows
// meaningful.
func (o Options) scale(d float64) float64 {
	if !o.Quick {
		return d
	}
	s := d / 8
	if s < 6*timebase.Hour {
		s = 6 * timebase.Hour
	}
	if s > d {
		s = d
	}
	return s
}

// Report is the output of one experiment.
type Report struct {
	ID      string
	Title   string
	Figures []Figure
	Checks  []Check
	Tables  map[string]*trace.Table

	// PeakHeap is the peak live-heap watermark (bytes) sampled while
	// the experiment ran: a property of the process, so not a report
	// figure. Only longrun samples it; the constant-memory gates read it.
	PeakHeap uint64

	dir   string        // Options.OutputDir: where artifacts go, "" for none
	saved []string      // names of the tables Run writes, in order
	sinks []*seriesSink // series Run closes
}

// Passed reports whether every check passed.
func (r *Report) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass() {
			return false
		}
	}
	return true
}

// Render formats the report for terminal output.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	w := 0
	for _, f := range r.Figures {
		w = max(w, utf8.RuneCountInString(f.Name))
	}
	for _, f := range r.Figures {
		fmt.Fprintf(&b, "%-*s  %s\n", w, f.Name, f.Got())
	}
	for _, c := range r.Checks {
		mark := "PASS"
		if !c.Pass() {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "[%s] %-40s want %-28s got %s\n", mark, c.Name, c.Want(), c.Got())
	}
	return b.String()
}

// table registers a materialized table artifact; Run writes it to
// DIR/<id>_<name>.tsv when the experiment succeeds.
func (r *Report) table(name string, cols ...string) *trace.Table {
	t := trace.NewTable(cols...)
	r.Tables[name] = t
	r.saved = append(r.saved, name)
	return t
}

// path is the file of the artifact name.
func (r *Report) path(name string) string {
	return filepath.Join(r.dir, r.ID+"_"+name+".tsv")
}

// runner is the signature of one experiment: it fills the report Run
// built for it.
type runner func(r *Report, opts Options) error

type registryEntry struct {
	id    string
	title string
	run   runner
}

// registry maps experiment IDs to implementations, in presentation
// order.
var registry = []registryEntry{
	{"table1", "Absolute errors at key error rates and intervals", runTable1},
	{"table2", "Characteristics of the stratum-1 NTP servers", runTable2},
	{"fig2", "Offset drift of the uncorrected clock in two environments", runFig2},
	{"fig3", "Allan deviation plots across four environments", runFig3},
	{"fig4", "Backward network delay and server delay time series", runFig4},
	{"fig5", "Naive per-packet rate estimates vs reference", runFig5},
	{"fig6", "Naive per-packet offset estimates vs reference", runFig6},
	{"fig7", "Robust rate estimation error for E*=20δ and 5δ", runFig7},
	{"fig8", "Offset algorithm vs naive vs reference time series", runFig8},
	{"fig9a", "Offset error sensitivity to window size τ'", runFig9a},
	{"fig9b", "Offset error sensitivity to quality parameter E", runFig9b},
	{"fig9c", "Offset error sensitivity to polling period", runFig9c},
	{"fig10", "Performance over four host-server environments", runFig10},
	{"fig11a", "Recovery after a multi-day data gap", runFig11a},
	{"fig11b", "150 ms server clock error contained by sanity check", runFig11b},
	{"fig11c", "Artificial upward level shifts (temporary and permanent)", runFig11c},
	{"fig11d", "Natural symmetric downward level shift", runFig11d},
	{"fig12", "Offset error over 3 months at polling 64 and 256", runFig12},
	{"baseline", "SW-NTP baseline on identical traces", runBaseline},
	{"ablation", "Contribution of each design mechanism", runAblation},
	{"ensemble", "Faulty-server containment by the multi-server ensemble clock", runEnsemble},
	{"select", "Colluding-minority rejection by interval-intersection selection", runSelect},
	{"asym", "Path-asymmetry correction: damped ensemble consensus transfer", runAsym},
	{"longrun", "Multi-week streaming run: windowed error and online Allan series", runLongRun},
	{"chaos", "Fault-schedule survival: degradation ladder, holdover bound, recovery", runChaos},
}

// IDs returns all experiment identifiers in presentation order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// Title returns the human title of an experiment.
func Title(id string) string {
	for _, e := range registry {
		if e.id == id {
			return e.title
		}
	}
	return ""
}

// Run executes one experiment by ID on a report it builds, then ends
// the report's life (Report.close).
func Run(id string, opts Options) (*Report, error) {
	for _, e := range registry {
		if e.id == id {
			r := &Report{ID: id, Title: e.title, Tables: map[string]*trace.Table{}, dir: opts.OutputDir}
			if err := r.close(e.run(r, opts)); err != nil {
				return nil, err
			}
			return r, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
}

// close ends a report's life after its experiment returned err: every
// series the experiment opened is closed — also when it failed, so no
// file is left open — and its preview registered, and, on success,
// every table is written to the output directory when one is set. It
// returns the first error.
func (r *Report) close(err error) error {
	for _, s := range r.sinks {
		r.Tables[s.name] = s.preview
		if cerr := s.close(); err == nil {
			err = cerr
		}
	}
	if err != nil || r.dir == "" {
		return err
	}
	for _, name := range r.saved {
		if err := r.Tables[name].SaveTSV(r.path(name)); err != nil {
			return err
		}
	}
	return nil
}

// --- shared helpers ---

// defaultCfg builds the paper's default engine configuration with the
// nominal counter period (~49 PPM off true, as a real spec value is).
func defaultCfg(poll float64) core.Config {
	return core.DefaultConfig(1.0/548655270, poll)
}

// refOffset is θ_g: the DAG-derived reference offset of one exchange
// under the engine's own uncorrected clock C(Tf) = Tf·p + c.
func refOffset(res core.Result, e sim.Exchange) float64 {
	return float64(e.Tf)*res.ClockP + res.ClockC - e.Tg
}

// offsetErrOf is the engine scorer: θ̂ − θ_g for one exchange.
func offsetErrOf(res core.Result, e sim.Exchange) float64 {
	return res.ThetaHat - refOffset(res, e)
}

// clockErr is the ensemble scorer: the combined absolute clock read at
// counter value T, minus the true time of that instant.
func clockErr(ro *ensemble.Readout, T uint64, truth float64) float64 {
	return ro.AbsoluteTime(T) - truth
}

// --- run harnesses ---
//
// One per clock kind, same shape: a scenario is generated as a pull
// stream (bit-identical to sim.Generate / sim.GenerateMulti), each
// completed exchange is pushed through a fresh estimator, and the
// per-exchange callback folds whatever the report needs — online
// accumulators (internal/stats), row-streamed TSV sinks, or a slice
// when a figure wants exact order statistics of a long series. Nothing
// else materializes a trace or a result slice, so peak memory is set by
// the estimator's windows and the accumulators, not the trace length.

// streamRun is the engine harness: it generates sc as a stream (the
// oscillator cache trimmed behind the emission front) and feeds every
// completed exchange through a fresh engine built from cfg, invoking fn
// per packet. It returns the stream (for oracle references such as
// Osc().MeanPeriod()) after the full pass.
func streamRun(sc sim.Scenario, cfg core.Config, fn func(e sim.Exchange, res core.Result)) (*sim.Stream, error) {
	st, err := sim.NewStream(sc)
	if err != nil {
		return nil, err
	}
	st.SetTrim(true)
	s, err := core.NewSync(cfg)
	if err != nil {
		return nil, err
	}
	for {
		e, ok := st.Next()
		if !ok {
			return st, nil
		}
		if e.Lost {
			continue
		}
		res, err := s.Process(core.Input{Ta: e.Ta, Tf: e.Tf, Tb: e.Tb, Te: e.Te})
		if err != nil {
			return nil, fmt.Errorf("experiments: process seq %d: %w", e.Seq, err)
		}
		fn(e, res)
	}
}

// ensembleStep is what the ensemble harness hands its callback for one
// completed exchange.
type ensembleStep struct {
	sim.MultiExchange
	// Res is the exchange's own engine's result: that engine is exactly
	// a single-server clock pointed at Server.
	Res core.Result
	// Prev was in force before the exchange, Readout was published by it.
	Prev, Readout *ensemble.Readout
	// Err is the combined clock's error at the exchange.
	Err float64
}

// ensembleRun is the ensemble harness: it generates sc as a stream and
// feeds every completed exchange through a fresh ensemble — cfg with one
// default engine per server at the scenario's polling period — invoking
// fn (when non-nil) per exchange. It returns the median |Err| over the
// exchanges after tailFrom, the settled tail every ensemble experiment
// scores, and the final readout.
func ensembleRun(sc sim.MultiScenario, cfg ensemble.Config, tailFrom float64, fn func(ensembleStep)) (float64, *ensemble.Readout, error) {
	st, err := sim.NewMultiStream(sc)
	if err != nil {
		return 0, nil, err
	}
	cfg.Engines = make([]core.Config, len(sc.Servers))
	for i := range cfg.Engines {
		cfg.Engines[i] = defaultCfg(sc.PollPeriod)
	}
	tail := stats.NewMedianAbs()
	final, err := ensembleFeed(st, cfg, func(s ensembleStep) {
		if s.TrueTf > tailFrom {
			tail.Add(s.Err)
		}
		if fn != nil {
			fn(s)
		}
	})
	if err != nil {
		return 0, nil, err
	}
	return tail.Value(), final, nil
}

// ensembleFeed is the harness's loop over a stream the caller opened
// (chaos reads the stream's oscillator between exchanges) and the
// engines cfg names.
func ensembleFeed(st *sim.MultiStream, cfg ensemble.Config, fn func(ensembleStep)) (*ensemble.Readout, error) {
	ens, err := ensemble.New(cfg)
	if err != nil {
		return nil, err
	}
	prev := ens.Readout()
	for {
		e, ok := st.Next()
		if !ok {
			return prev, nil
		}
		if e.Lost {
			continue
		}
		res, err := ens.Process(e.Server, core.Input{Ta: e.Ta, Tf: e.Tf, Tb: e.Tb, Te: e.Te})
		if err != nil {
			return nil, fmt.Errorf("experiments: server %d seq %d: %w", e.Server, e.Seq, err)
		}
		ro := ens.Readout()
		fn(ensembleStep{MultiExchange: e, Res: res, Prev: prev, Readout: ro, Err: clockErr(ro, e.Tf, e.Tg)})
		prev = ro
	}
}

// fiveNum registers a five-number summary as the five figures
// "label p01" … "label p99": the percentile curves of Figures 9 and 10.
func (r *Report) fiveNum(label string, fn stats.FiveNum) {
	r.figure(label+" p01", fn.P01, Seconds)
	r.figure(label+" p25", fn.P25, Seconds)
	r.figure(label+" p50", fn.P50, Seconds)
	r.figure(label+" p75", fn.P75, Seconds)
	r.figure(label+" p99", fn.P99, Seconds)
}

// fiveNumRow appends key, a five-number summary in µs and any extra
// values as one row of t: the percentile tables of Figures 9 and 10.
func fiveNumRow(t *trace.Table, key float64, fn stats.FiveNum, extra ...float64) {
	row := []float64{key, fn.P01 / 1e-6, fn.P25 / 1e-6, fn.P50 / 1e-6, fn.P75 / 1e-6, fn.P99 / 1e-6}
	t.Append(append(row, extra...)...)
}

// previewCap bounds the in-memory preview of a streamed series: when a
// series outgrows it, every other retained row is dropped and the keep
// stride doubles, so the report holds a uniform decimation at bounded
// memory no matter how long the series runs.
const previewCap = 4096

// seriesSink streams a per-packet series: rows go to a TSV file as they
// are appended (when an output directory is configured) and to a
// bounded decimated preview table, which Run registers with the report
// when it closes the sink and whose digest the accuracy record carries,
// without the series ever being resident.
type seriesSink struct {
	name    string
	file    *trace.Writer
	err     error // the file's creation error, reported on close
	preview *trace.Table
	cols    []string
	stride  int
	seen    int
}

// series opens a streamed series artifact on the report; its file is
// DIR/<id>_<name>.tsv.
func (r *Report) series(name string, cols ...string) *seriesSink {
	s := &seriesSink{name: name, cols: cols, preview: trace.NewTable(cols...), stride: 1}
	if r.dir != "" {
		s.file, s.err = trace.Create(r.path(name), cols...)
	}
	r.sinks = append(r.sinks, s)
	return s
}

// Append adds one row to the streamed file and (subsampled) preview.
func (s *seriesSink) Append(vals ...float64) {
	if s.file != nil {
		s.file.Append(vals...)
	}
	if s.seen%s.stride == 0 {
		if s.preview.Len() >= previewCap {
			compact := trace.NewTable(s.cols...)
			for i := 0; i < s.preview.Len(); i += 2 {
				compact.Append(s.preview.Row(i)...)
			}
			s.preview = compact
			s.stride *= 2
		}
		s.preview.Append(vals...)
	}
	s.seen++
}

// close flushes and closes the file.
func (s *seriesSink) close() error {
	if s.file != nil {
		return s.file.Close()
	}
	return s.err
}
