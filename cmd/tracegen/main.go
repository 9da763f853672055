// Command tracegen generates simulated exchange traces and saves them in
// the binary capture format, for offline replay through the estimators
// (see cmd/tscd -mode replay). This mirrors the paper's methodology:
// collect raw timestamp data continuously, post-process repeatedly.
//
// Generation is streamed: exchanges go from the pull-based scenario
// stream straight to the capture writer, one record at a time, so a
// multi-week (-days 21 and beyond) trace writes in constant memory —
// wall-clock and disk are the only resources that scale with length.
//
// With -servers N > 1 a multi-server scenario is generated (one host
// oscillator polling N servers of the given class over independent
// paths) and one capture file is written per server, suffixed .s0, .s1,
// …, so ensemble experiments replay from disk exactly like
// single-server ones.
//
// Usage:
//
//	tracegen -env MR -srv ServerInt -days 21 -poll 16 -seed 7 -o mrint.tsctrc
//	tracegen -servers 3 -days 7 -o ensemble.tsctrc
package main

import (
	"flag"
	"fmt"
	"log"
	"path/filepath"
	"strings"

	"repro/internal/capture"
	"repro/internal/sim"
	"repro/internal/timebase"
)

func main() {
	var (
		env     = flag.String("env", "MR", "environment: Lab or MR")
		srv     = flag.String("srv", "ServerInt", "server: ServerLoc, ServerInt, ServerExt")
		days    = flag.Float64("days", 1, "duration in days")
		poll    = flag.Float64("poll", 16, "polling period in seconds")
		seed    = flag.Uint64("seed", 1, "deterministic seed")
		loss    = flag.Float64("loss", 0.0015, "per-exchange loss probability")
		servers = flag.Int("servers", 1, "number of upstream servers (1 = single capture, N>1 = one capture per server)")
		out     = flag.String("o", "trace.tsctrc", "output file (multi-server runs insert .sK before the extension)")
	)
	flag.Parse()

	var e sim.Environment
	switch *env {
	case "Lab":
		e = sim.Laboratory
	case "MR":
		e = sim.MachineRoom
	default:
		log.Fatalf("unknown environment %q", *env)
	}
	var spec sim.ServerSpec
	switch *srv {
	case "ServerLoc":
		spec = sim.ServerLoc()
	case "ServerInt":
		spec = sim.ServerInt()
	case "ServerExt":
		spec = sim.ServerExt()
	default:
		log.Fatalf("unknown server %q", *srv)
	}
	if *servers < 1 {
		log.Fatalf("-servers must be >= 1, got %d", *servers)
	}

	if *servers == 1 {
		if err := genSingle(e, spec, *poll, *days, *seed, *loss, *out); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := genMulti(e, spec, *servers, *poll, *days, *seed, *loss, *out); err != nil {
		log.Fatal(err)
	}
}

// genSingle streams a single-server scenario to one capture file.
func genSingle(env sim.Environment, spec sim.ServerSpec, poll, days float64, seed uint64, loss float64, out string) error {
	sc := sim.NewScenario(env, spec, poll, days*timebase.Day, seed)
	sc.LossProb = loss
	st, err := sim.NewStream(sc)
	if err != nil {
		return err
	}
	st.SetTrim(true)
	w, err := capture.CreateFile(out, captureMeta(sc.Name, poll, sc.Duration, seed,
		sc.Oscillator.NominalHz, days))
	if err != nil {
		return err
	}
	lost := 0
	for {
		e, ok := st.Next()
		if !ok {
			break
		}
		if e.Lost {
			lost++
		}
		if err := w.WriteExchange(e); err != nil {
			w.Close()
			return err
		}
	}
	n := w.Count()
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d exchanges (%d lost) to %s\n", n, lost, out)
	return nil
}

// genMulti streams a multi-server scenario, demultiplexing the merged
// emission order into one capture file per server.
func genMulti(env sim.Environment, spec sim.ServerSpec, nSrv int, poll, days float64, seed uint64, loss float64, out string) error {
	specs := make([]sim.ServerSpec, nSrv)
	for k := range specs {
		specs[k] = spec
	}
	sc := sim.NewMultiScenario(env, specs, poll, days*timebase.Day, seed)
	sc.LossProb = loss
	st, err := sim.NewMultiStream(sc)
	if err != nil {
		return err
	}
	st.SetTrim(true)

	writers := make([]*capture.Writer, nSrv)
	paths := make([]string, nSrv)
	// closeAll closes every open writer, also past a failing one, and
	// returns the first error.
	closeAll := func() (first error) {
		for _, w := range writers {
			if w != nil {
				if err := w.Close(); first == nil {
					first = err
				}
			}
		}
		return first
	}
	for k := range writers {
		paths[k] = serverPath(out, k)
		writers[k], err = capture.CreateFile(paths[k],
			captureMeta(fmt.Sprintf("%s/s%d", sc.Name, k), poll, sc.Duration, seed,
				sc.Oscillator.NominalHz, days))
		if err != nil {
			closeAll()
			return err
		}
	}
	lost := make([]int, nSrv)
	for {
		e, ok := st.Next()
		if !ok {
			break
		}
		if e.Lost {
			lost[e.Server]++
		}
		if err := writers[e.Server].WriteExchange(e.Exchange); err != nil {
			closeAll()
			return err
		}
	}
	if err := closeAll(); err != nil {
		return err
	}
	for k, w := range writers {
		fmt.Printf("server %d: wrote %d exchanges (%d lost) to %s\n", k, w.Count(), lost[k], paths[k])
	}
	return nil
}

// captureMeta assembles the standard capture header.
func captureMeta(name string, poll, duration float64, seed uint64, nominalHz, days float64) capture.Meta {
	return capture.Meta{
		Name:       name,
		PollPeriod: poll,
		Duration:   duration,
		Seed:       seed,
		NominalHz:  nominalHz,
		Comment:    fmt.Sprintf("tracegen %s %gd poll %gs", name, days, poll),
	}
}

// serverPath inserts .sK before the output extension: ensemble.tsctrc
// becomes ensemble.s0.tsctrc.
func serverPath(out string, k int) string {
	ext := filepath.Ext(out)
	return fmt.Sprintf("%s.s%d%s", strings.TrimSuffix(out, ext), k, ext)
}
