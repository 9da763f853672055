// Package metrics is a dependency-free Prometheus-text-exposition
// metrics layer for the serving path. It exists because the relay's hot
// loop — one counter increment per UDP packet, millions of times per
// second across shards — cannot afford a general-purpose metrics
// library: an increment here is a single atomic add on a pre-registered
// cell, with no map lookup, no interface call, and no allocation
// (guarded by TestMetricsHotPathZeroAlloc). All formatting cost is paid
// at scrape time, when WriteText renders every registered family in the
// Prometheus text exposition format (# HELP/# TYPE, escaped label
// values, deterministic order), so a scrape is the only place bytes are
// built.
//
// The shapes mirror the Prometheus client library where that helps the
// reader — Counter/Gauge, *Vec for labeled families, Func for values
// sampled at scrape — and diverge where the hot path demands it:
// Vec.With resolves a label set to its cell once, at wiring time, and
// the returned cell is what the packet loop touches. Scrape hooks
// (OnScrape) let slow-moving state (ladder rung, per-server weights
// from the latest readout snapshot) be folded into gauges only when
// someone is actually looking.
//
// A cell is also the only representation a count has. The layers that
// count (internal/ntp, internal/ratelimit, the upstream slots) declare
// Counter, Histogram and EWMA cells as plain struct fields, write them
// on their hot paths, read them back for their own Stats views and log
// lines, and hand the same cells to a Registry (RegisterCounter,
// RegisterHistogram, CounterVec.Register) to be rendered — nothing is
// copied or folded on the way to a scrape, so concurrent scrapes see
// monotone counters for free. CounterFunc covers the monotone sources
// that are not cells (a count carried inside a published readout).
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is
// ready to use; increments are single atomic adds (zero-alloc).
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
//
//repro:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
//
//repro:hotpath
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down. The zero value is
// ready to use; Set is a single atomic store (zero-alloc).
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
//
//repro:hotpath
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by d.
//
//repro:hotpath
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// EWMA is an exponentially weighted moving average of float64 samples
// (seconds, everywhere it is used here). The zero value is ready to
// use and unseeded: it reads 0, and the first Observe adopts its sample
// outright. Seeding is a state of its own, not "the average is 0" — an
// average that decays to exactly 0, or is seeded with 0, keeps
// averaging instead of jumping to the next raw sample.
type EWMA struct {
	// bits holds the average's float64 bits with the lowest mantissa
	// bit forced to 1 as the seeded flag (one part in 2^52 of the value,
	// far below any sample's noise); all-zero means unseeded.
	bits atomic.Uint64
}

// Observe folds one sample in with gain alpha (0 < alpha <= 1, a
// constant of the call site): avg += alpha·(v − avg).
//
//repro:hotpath
func (e *EWMA) Observe(v, alpha float64) {
	for {
		old := e.bits.Load()
		next := v
		if old != 0 {
			cur := math.Float64frombits(old &^ 1)
			next = cur + alpha*(v-cur)
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(next)|1) {
			return
		}
	}
}

// Value returns the current average; 0 before the first sample.
func (e *EWMA) Value() float64 { return math.Float64frombits(e.bits.Load() &^ 1) }

// Histogram is a fixed-bucket cumulative histogram. Buckets are set at
// construction and never change, so an observation is one bounded
// bounds scan plus an atomic add — no map, no lock, no allocation.
// Rendering follows the Prometheus convention: cumulative
// `_bucket{le="…"}` series with an implicit +Inf bucket, plus `_sum`
// and `_count`.
type Histogram struct {
	bounds  []float64       // ascending upper bounds; +Inf implicit
	buckets []atomic.Uint64 // len(bounds)+1, per-bucket (non-cumulative)
	sum     atomic.Uint64   // float64 bits of the observation sum
}

// Observe records one sample.
//
//repro:hotpath
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Cumulative fills dst with the cumulative observation counts, bucket
// by bucket as the exposition renders them: dst[i] counts samples ≤
// bound i, and the last entry (the +Inf bucket) is the total. dst must
// hold one entry per bound plus one.
func (h *Histogram) Cumulative(dst []uint64) {
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		dst[i] = cum
	}
}

// Sum returns the observation sum.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// NewHistogram returns a histogram cell with the given ascending
// bucket upper bounds (a trailing +Inf bucket is added automatically).
func NewHistogram(bounds ...float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bucket bounds %v not ascending", bounds))
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// RegisterHistogram renders the caller's histogram cell as a family.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.newFamily(name, help, "histogram", nil).hist = h
}

// cell is one rendered sample: a pre-escaped label suffix plus its
// value source (exactly one of counter, gauge, fn, or count).
type cell struct {
	labels  string // `{k="v",...}` or ""
	counter *Counter
	gauge   *Gauge
	fn      func() float64
	count   func() uint64
}

// family is one metric family: a # HELP/# TYPE header plus its cells in
// creation order.
type family struct {
	name  string
	help  string
	typ   string // "counter", "gauge" or "histogram"
	mu    sync.Mutex
	cells []*cell
	byKey map[string]*cell // label suffix → cell, for Vec.With caching
	hist  *Histogram       // set instead of cells for histogram families
}

// Registry holds metric families and renders them on scrape. Families
// render in registration order; a scrape never blocks the hot path
// (cells are read with atomic loads).
type Registry struct {
	mu       sync.Mutex
	families []*family
	names    map[string]bool
	hooks    []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

// OnScrape registers fn to run at the start of every WriteText, before
// any family renders: the place to fold slow-moving state (a readout
// snapshot, poller stats) into gauges only when someone is looking.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, fn)
}

// validName matches the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*; labels use the same minus ':'.
func validName(s string, label bool) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_':
		case c == ':' && !label:
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// newFamily registers a family, panicking on invalid or duplicate
// names — both are wiring-time programmer errors, not runtime
// conditions.
func (r *Registry) newFamily(name, help, typ string, labelNames []string) *family {
	if !validName(name, false) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labelNames {
		if !validName(l, true) {
			panic(fmt.Sprintf("metrics: invalid label name %q in %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("metrics: duplicate metric name %q", name))
	}
	r.names[name] = true
	f := &family{name: name, help: help, typ: typ, byKey: map[string]*cell{}}
	r.families = append(r.families, f)
	return f
}

// Counter registers an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.RegisterCounter(name, help, c)
	return c
}

// RegisterCounter renders the caller's counter cell as an unlabeled
// family: the owner keeps counting into it, the scrape reads it.
func (r *Registry) RegisterCounter(name, help string, c *Counter) {
	f := r.newFamily(name, help, "counter", nil)
	f.cells = append(f.cells, &cell{counter: c})
}

// CounterFunc registers a counter sampled by fn at every scrape, for a
// monotone count that is not a cell. fn must never decrease.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	f := r.newFamily(name, help, "counter", nil)
	f.cells = append(f.cells, &cell{count: fn})
}

// Gauge registers an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.newFamily(name, help, "gauge", nil)
	g := &Gauge{}
	f.cells = append(f.cells, &cell{gauge: g})
	return g
}

// GaugeFunc registers a gauge sampled by fn at every scrape.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.newFamily(name, help, "gauge", nil)
	f.cells = append(f.cells, &cell{fn: fn})
}

// CounterVec is a labeled counter family.
type CounterVec struct {
	f          *family
	labelNames []string
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.newFamily(name, help, "counter", labelNames), labelNames: labelNames}
}

// With resolves one label-value combination to its counter cell,
// creating it on first use. Resolve at wiring time and keep the
// returned *Counter: With itself takes the family lock and allocates on
// first use, the returned cell never does.
func (cv *CounterVec) With(labelValues ...string) *Counter {
	c := cv.f.withCell(cv.labelNames, labelValues)
	if c.counter == nil {
		c.counter = &Counter{}
	}
	return c.counter
}

// Register renders the caller's counter cell under one label-value
// combination (see Registry.RegisterCounter).
func (cv *CounterVec) Register(c *Counter, labelValues ...string) {
	cv.f.withCell(cv.labelNames, labelValues).counter = c
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct {
	f          *family
	labelNames []string
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.newFamily(name, help, "gauge", labelNames), labelNames: labelNames}
}

// With resolves one label-value combination to its gauge cell, creating
// it on first use (see CounterVec.With).
func (gv *GaugeVec) With(labelValues ...string) *Gauge {
	c := gv.f.withCell(gv.labelNames, labelValues)
	if c.gauge == nil {
		c.gauge = &Gauge{}
	}
	return c.gauge
}

// withCell returns the cell for one label-value combination, creating
// and caching it under the rendered label suffix.
func (f *family) withCell(names, values []string) *cell {
	if len(values) != len(names) {
		panic(fmt.Sprintf("metrics: %s expects %d label values, got %d", f.name, len(names), len(values)))
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		escapeLabelValue(&b, values[i])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	key := b.String()
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.byKey[key]
	if !ok {
		c = &cell{labels: key}
		f.byKey[key] = c
		f.cells = append(f.cells, c)
	}
	return c
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double-quote and newline.
func escapeLabelValue(b *strings.Builder, s string) {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
}

// escapeHelp escapes a HELP string: backslash and newline only (quotes
// are legal there).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WriteText renders every family in the Prometheus text exposition
// format, in registration order, cells within a family sorted by label
// suffix (so scrapes are byte-stable regardless of With call order).
// Scrape hooks run first.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	hooks := make([]func(), len(r.hooks))
	copy(hooks, r.hooks)
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	for _, h := range hooks {
		h()
	}

	var b []byte
	for _, f := range fams {
		f.mu.Lock()
		cells := make([]*cell, len(f.cells))
		copy(cells, f.cells)
		f.mu.Unlock()
		sort.Slice(cells, func(i, j int) bool { return cells[i].labels < cells[j].labels })

		b = b[:0]
		if f.help != "" {
			b = append(b, "# HELP "...)
			b = append(b, f.name...)
			b = append(b, ' ')
			b = append(b, escapeHelp(f.help)...)
			b = append(b, '\n')
		}
		b = append(b, "# TYPE "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.typ...)
		b = append(b, '\n')
		if h := f.hist; h != nil {
			var cum uint64
			for i := range h.buckets {
				cum += h.buckets[i].Load()
				b = append(b, f.name...)
				b = append(b, `_bucket{le="`...)
				if i < len(h.bounds) {
					b = appendFloat(b, h.bounds[i])
				} else {
					b = append(b, "+Inf"...)
				}
				b = append(b, `"} `...)
				b = strconv.AppendUint(b, cum, 10)
				b = append(b, '\n')
			}
			b = append(b, f.name...)
			b = append(b, "_sum "...)
			b = appendFloat(b, h.Sum())
			b = append(b, '\n')
			b = append(b, f.name...)
			b = append(b, "_count "...)
			b = strconv.AppendUint(b, cum, 10)
			b = append(b, '\n')
			if _, err := w.Write(b); err != nil {
				return err
			}
			continue
		}
		for _, c := range cells {
			b = append(b, f.name...)
			b = append(b, c.labels...)
			b = append(b, ' ')
			switch {
			case c.counter != nil:
				b = strconv.AppendUint(b, c.counter.Value(), 10)
			case c.gauge != nil:
				b = appendFloat(b, c.gauge.Value())
			case c.fn != nil:
				b = appendFloat(b, c.fn())
			case c.count != nil:
				b = strconv.AppendUint(b, c.count(), 10)
			}
			b = append(b, '\n')
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// appendFloat renders a float sample value, with the exposition
// format's spellings for the non-finite values.
func appendFloat(b []byte, v float64) []byte {
	switch {
	case math.IsNaN(v):
		return append(b, "NaN"...)
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry as a /metrics
// endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// The scrape builds into the response writer directly; an error
		// here means the client went away, nothing to do about it.
		_ = r.WriteText(w)
	})
}
