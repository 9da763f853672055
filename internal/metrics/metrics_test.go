package metrics

import (
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestExpositionFormat(t *testing.T) {
	cases := []struct {
		name  string
		build func(r *Registry)
		want  string
	}{
		{
			"counter",
			func(r *Registry) {
				c := r.Counter("ntp_requests_total", "Requests served.")
				c.Add(41)
				c.Inc()
			},
			"# HELP ntp_requests_total Requests served.\n# TYPE ntp_requests_total counter\nntp_requests_total 42\n",
		},
		{
			"gauge",
			func(r *Registry) { r.Gauge("clock_offset_seconds", "Combined offset.").Set(-1.5e-6) },
			"# HELP clock_offset_seconds Combined offset.\n# TYPE clock_offset_seconds gauge\nclock_offset_seconds -1.5e-06\n",
		},
		{
			"gauge-func",
			func(r *Registry) { r.GaugeFunc("ladder_state", "Rung.", func() float64 { return 3 }) },
			"# HELP ladder_state Rung.\n# TYPE ladder_state gauge\nladder_state 3\n",
		},
		{
			"no-help",
			func(r *Registry) { r.Counter("bare_total", "") },
			"# TYPE bare_total counter\nbare_total 0\n",
		},
		{
			"label-escaping",
			func(r *Registry) {
				r.CounterVec("drops_total", "Drops.", "reason").With("a\\b\"c\nd").Inc()
			},
			"# HELP drops_total Drops.\n# TYPE drops_total counter\ndrops_total{reason=\"a\\\\b\\\"c\\nd\"} 1\n",
		},
		{
			"help-escaping",
			func(r *Registry) { r.Counter("esc_total", "line\\one\ntwo") },
			"# HELP esc_total line\\\\one\\ntwo\n# TYPE esc_total counter\nesc_total 0\n",
		},
		{
			"label-name-order-preserved",
			func(r *Registry) {
				r.GaugeVec("weight", "W.", "shard", "server").With("2", "0").Set(0.25)
			},
			"# HELP weight W.\n# TYPE weight gauge\nweight{shard=\"2\",server=\"0\"} 0.25\n",
		},
		{
			"cells-sorted-by-labels",
			func(r *Registry) {
				cv := r.CounterVec("shard_total", "Per shard.", "shard")
				cv.With("10").Inc()
				cv.With("2").Inc()
				cv.With("1").Inc()
			},
			"# HELP shard_total Per shard.\n# TYPE shard_total counter\n" +
				"shard_total{shard=\"1\"} 1\nshard_total{shard=\"10\"} 1\nshard_total{shard=\"2\"} 1\n",
		},
		{
			"caller-owned-cells",
			func(r *Registry) {
				var total, a, b Counter
				total.Add(7)
				a.Inc()
				r.RegisterCounter("owned_total", "Owned.", &total)
				cv := r.CounterVec("owned_vec_total", "", "k")
				cv.Register(&b, "b")
				cv.Register(&a, "a")
				total.Inc() // the owner keeps counting; the scrape sees it
			},
			"# HELP owned_total Owned.\n# TYPE owned_total counter\nowned_total 8\n" +
				"# TYPE owned_vec_total counter\nowned_vec_total{k=\"a\"} 1\nowned_vec_total{k=\"b\"} 0\n",
		},
		{
			"counter-func",
			func(r *Registry) { r.CounterFunc("sampled_total", "S.", func() uint64 { return 1 << 40 }) },
			"# HELP sampled_total S.\n# TYPE sampled_total counter\nsampled_total 1099511627776\n",
		},
		{
			"histogram",
			func(r *Registry) {
				h := NewHistogram(0.001, 0.01)
				r.RegisterHistogram("dwell_seconds", "D.", h)
				h.Observe(0.0005)
				h.Observe(0.005)
				h.Observe(0.005)
				h.Observe(5)
			},
			"# HELP dwell_seconds D.\n# TYPE dwell_seconds histogram\n" +
				"dwell_seconds_bucket{le=\"0.001\"} 1\ndwell_seconds_bucket{le=\"0.01\"} 3\ndwell_seconds_bucket{le=\"+Inf\"} 4\n" +
				"dwell_seconds_sum 5.0105\ndwell_seconds_count 4\n",
		},
		{
			"non-finite-gauges",
			func(r *Registry) {
				gv := r.GaugeVec("edge", "", "k")
				gv.With("nan").Set(math.NaN())
				gv.With("pinf").Set(math.Inf(1))
				gv.With("ninf").Set(math.Inf(-1))
			},
			"# TYPE edge gauge\nedge{k=\"nan\"} NaN\nedge{k=\"ninf\"} -Inf\nedge{k=\"pinf\"} +Inf\n",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewRegistry()
			c.build(r)
			if got := render(t, r); got != c.want {
				t.Errorf("rendered:\n%q\nwant:\n%q", got, c.want)
			}
		})
	}
}

// TestFamiliesRenderInRegistrationOrder: scrape output is byte-stable
// and ordered by registration, not by name.
func TestFamiliesRenderInRegistrationOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "")
	r.Counter("aaa_total", "")
	got := render(t, r)
	if !(strings.Index(got, "zzz_total") < strings.Index(got, "aaa_total")) {
		t.Errorf("families reordered:\n%s", got)
	}
}

// TestCounterMonotonicAcrossScrapes: scrapes observe a non-decreasing
// counter, and a scrape itself never perturbs the value.
func TestCounterMonotonicAcrossScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mono_total", "")
	prev := uint64(0)
	for i := 0; i < 10; i++ {
		c.Add(uint64(i))
		out := render(t, r)
		if v := c.Value(); v < prev {
			t.Fatalf("counter went backwards: %d after %d", v, prev)
		} else {
			prev = v
		}
		want := "mono_total " + utoa(prev) + "\n"
		if !strings.Contains(out, want) {
			t.Fatalf("scrape %d missing %q:\n%s", i, want, out)
		}
	}
}

func utoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestScrapeHooksRun: OnScrape hooks fold state in before rendering.
func TestScrapeHooksRun(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("hooked", "")
	n := 0.0
	r.OnScrape(func() { n++; g.Set(n) })
	if got := render(t, r); !strings.Contains(got, "hooked 1\n") {
		t.Errorf("first scrape: %q", got)
	}
	if got := render(t, r); !strings.Contains(got, "hooked 2\n") {
		t.Errorf("second scrape: %q", got)
	}
}

// TestRegistrationPanics: invalid and duplicate names are wiring-time
// programmer errors.
func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("dup_total", "")
	mustPanic("duplicate", func() { r.Gauge("dup_total", "") })
	mustPanic("bad name", func() { r.Counter("9leading", "") })
	mustPanic("bad name chars", func() { r.Counter("has space", "") })
	mustPanic("bad label", func() { r.CounterVec("v_total", "", "bad:label") })
	cv := r.CounterVec("arity_total", "", "a", "b")
	mustPanic("label arity", func() { cv.With("only-one") })
}

// TestEWMA drives the one moving average in the module to a target from
// both sides and through the cases its three predecessors got wrong: a
// sample of exactly 0 is a sample, not "unseeded" (they jumped to the
// next raw sample after one), and a step smaller than 1/alpha units
// still moves the average (the integer-nanosecond one stalled up to
// 15 ns short of its target).
func TestEWMA(t *testing.T) {
	const alpha = 1.0 / 16
	cases := []struct {
		name    string
		samples []float64
		want    float64
		tol     float64
	}{
		{"unseeded reads zero", nil, 0, 0},
		{"first sample adopted", []float64{250e-6}, 250e-6, 1e-18},
		{"equal samples stay put", []float64{250e-6, 250e-6, 250e-6}, 250e-6, 1e-18},
		{"one step up", []float64{0, 16}, 1, 1e-15},
		{"one step down", []float64{16, 0}, 15, 1e-14},
		{"zero seed is a seed", []float64{0, 0, 16}, 1, 1e-15},
		{"through zero", []float64{1, -1, 0}, (1 - 2*alpha) * (1 - alpha), 1e-15},
		{"sub-nanosecond steps still move", repeat(100e-9, 1, repeat(110e-9, 400)...), 110e-9, 1e-18},
		{"converges from below", repeat(1, 1, repeat(2, 600)...), 2, 1e-12},
		{"converges from above", repeat(3, 1, repeat(2, 600)...), 2, 1e-12},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var e EWMA
			for _, v := range c.samples {
				e.Observe(v, alpha)
			}
			if got := e.Value(); math.Abs(got-c.want) > c.tol {
				t.Errorf("after %d samples: %v, want %v ± %v", len(c.samples), got, c.want, c.tol)
			}
		})
	}
}

// repeat returns n copies of v followed by tail.
func repeat(v float64, n int, tail ...float64) []float64 {
	out := make([]float64, n, n+len(tail))
	for i := range out {
		out[i] = v
	}
	return append(out, tail...)
}

// TestMetricsHotPathZeroAlloc: the operations the per-packet serve loop
// performs — counter increments and gauge stores on pre-resolved cells
// — allocate nothing. Vec.With is excluded by design: it is a
// wiring-time call whose result the hot path retains.
func TestMetricsHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot_total", "")
	g := r.Gauge("hot_gauge", "")
	vc := r.CounterVec("hot_vec_total", "", "shard").With("0")
	var e EWMA
	h := NewHistogram(1, 2)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		vc.Inc()
		g.Set(1.5)
		g.Add(0.5)
		e.Observe(1.5, 0.125)
		h.Observe(1.5)
	}); n != 0 {
		t.Errorf("hot-path metric ops allocate %v times per run, want 0", n)
	}
}

// TestHandler: the HTTP endpoint serves the exposition with the
// standard content type.
func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total", "").Add(7)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "served_total 7\n") {
		t.Errorf("body:\n%s", body)
	}
}
