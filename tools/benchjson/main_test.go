package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro/internal/ntp
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkServeLoopback/shards=1/io=portable-8     	   47148	      4464 ns/op	       0 B/op	       0 allocs/op	    224037 replies/s	         2.000 sys/reply
BenchmarkServeLoopback/shards=1/io=mmsg/txstamp-8 	   73800	      3374 ns/op	    296365 replies/s	         0.06306 sys/reply	         0.9999 txcov
some test chatter that is not a benchmark
PASS
ok  	repro/internal/ntp	1.671s
`

func TestParseBench(t *testing.T) {
	rep, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || !strings.Contains(rep.CPU, "Xeon") {
		t.Errorf("header: %+v", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	b0 := rep.Benchmarks[0]
	if b0.Name != "BenchmarkServeLoopback/shards=1/io=portable" {
		t.Errorf("name = %q (GOMAXPROCS suffix should be stripped)", b0.Name)
	}
	if b0.Pkg != "repro/internal/ntp" || b0.Iterations != 47148 {
		t.Errorf("b0 = %+v", b0)
	}
	for unit, want := range map[string]float64{
		"ns/op": 4464, "B/op": 0, "allocs/op": 0, "replies/s": 224037, "sys/reply": 2,
	} {
		if got := b0.Metrics[unit]; got != want {
			t.Errorf("b0 %s = %v, want %v", unit, got, want)
		}
	}
	b1 := rep.Benchmarks[1]
	if b1.Metrics["txcov"] != 0.9999 {
		t.Errorf("b1 txcov = %v, want 0.9999", b1.Metrics["txcov"])
	}
}

func TestParseBenchRejectsMangledLine(t *testing.T) {
	_, err := parseBench(strings.NewReader("BenchmarkX-8 100 4464 ns/op trailing\n"))
	if err == nil {
		t.Error("odd value/unit pairing accepted")
	}
	_, err = parseBench(strings.NewReader("BenchmarkX-8 notanumber\n"))
	if err == nil {
		t.Error("bad iteration count accepted")
	}
}

func TestParseBenchEmpty(t *testing.T) {
	rep, err := parseBench(strings.NewReader("PASS\nok x 1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Errorf("parsed %d benchmarks from chrome-only input", len(rep.Benchmarks))
	}
}
