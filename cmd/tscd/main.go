// Command tscd is the TSC-NTP synchronizer daemon. It runs the robust
// calibration pipeline in one of three modes:
//
//	-mode live   (default): poll one or more real NTP servers over UDP,
//	             stamping with the host's raw monotonic counter;
//	-mode sim:   generate a simulated scenario (environment x server) and
//	             report accuracy against the simulation's ground truth —
//	             useful to explore the algorithms without a network;
//	-mode replay: the same report from a saved capture file.
//
// Usage:
//
//	tscd -mode live -server 127.0.0.1:1123 -poll 16s
//	tscd -mode sim -env MR -srv ServerInt -days 1 -poll 16s
//	tscd -mode replay -trace mrint.tsctrc
//
// Replay mode consumes captures produced by cmd/tracegen (or any tool
// writing the internal/capture format) and scores the estimator against
// the recorded reference stamps, mirroring the paper's offline
// post-processing workflow. Both offline modes score in one function
// (score) and print the same summary, so a scenario and its tracegen
// capture report the same percentiles.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"strings"
	"time"

	tscclock "repro"
	"repro/internal/capture"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timebase"
)

func main() {
	var (
		mode   = flag.String("mode", "live", "live, sim or replay")
		server = flag.String("server", "127.0.0.1:1123", "comma-separated NTP servers (live mode)")
		poll   = flag.Duration("poll", 64*time.Second, "polling interval; live warmup polls at a quarter of it")
		local  = flag.Bool("localrate", false, "enable the local-rate refinement")

		env  = flag.String("env", "MR", "sim environment: Lab or MR")
		srv  = flag.String("srv", "ServerInt", "sim server: ServerLoc, ServerInt, ServerExt")
		days = flag.Float64("days", 1, "sim duration in days")
		seed = flag.Uint64("seed", 1, "sim seed")

		traceFile = flag.String("trace", "", "capture file (replay mode)")
	)
	flag.Parse()

	switch *mode {
	case "live":
		runLive(*server, *poll, *local)
	case "sim":
		runSim(*env, *srv, *days, poll.Seconds(), *seed, *local)
	case "replay":
		runReplay(*traceFile, *local)
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
}

// score is the one body of the offline modes: it feeds every completed
// exchange next yields through a fresh clock and, past the first hour,
// collects the absolute clock's error against the reference stamp.
func score(opts tscclock.Options, next func() (capture.Record, bool)) (clock *tscclock.Clock, errs []float64, fed, lost int) {
	clock, err := tscclock.New(opts)
	if err != nil {
		log.Fatal(err)
	}
	for {
		r, ok := next()
		if !ok {
			return clock, errs, fed, lost
		}
		if r.Lost {
			lost++
			continue
		}
		if _, err := clock.ProcessNTPExchange(r.Ta, r.Tf, r.Tb, r.Te); err != nil {
			log.Fatal(err)
		}
		fed++
		if r.TrueTf > timebase.Hour {
			errs = append(errs, clock.AbsoluteTime(r.Tf)-r.Tg)
		}
	}
}

// printErrors prints the summary both offline modes end with.
func printErrors(errs []float64) {
	if len(errs) == 0 {
		fmt.Println("trace too short to score (needs > 1 h)")
		return
	}
	fn := stats.FiveNumOf(errs)
	fmt.Printf("absolute clock:  median err %s, IQR %s, |median| %s\n",
		timebase.FormatDuration(fn.P50), timebase.FormatDuration(fn.P75-fn.P25),
		timebase.FormatDuration(math.Abs(fn.P50)))
	fmt.Printf("percentiles:     p01 %s  p25 %s  p50 %s  p75 %s  p99 %s\n",
		timebase.FormatDuration(fn.P01), timebase.FormatDuration(fn.P25),
		timebase.FormatDuration(fn.P50), timebase.FormatDuration(fn.P75),
		timebase.FormatDuration(fn.P99))
}

// runReplay scores a saved capture against its recorded DAG reference
// stamps.
func runReplay(path string, local bool) {
	meta, recs, err := capture.LoadAll(path)
	if err != nil {
		log.Fatal(err)
	}
	i := 0
	_, errs, fed, lost := score(tscclock.Options{
		NominalPeriod: 1 / meta.NominalHz,
		PollPeriod:    meta.PollPeriod,
		UseLocalRate:  local,
	}, func() (capture.Record, bool) {
		if i == len(recs) {
			return capture.Record{}, false
		}
		i++
		return recs[i-1], true
	})
	fmt.Printf("replayed %q (%s): %d exchanges fed, %d lost\n", path, meta.Name, fed, lost)
	printErrors(errs)
}

func runLive(server string, poll time.Duration, local bool) {
	live, err := tscclock.DialMultiLive(tscclock.MultiLiveOptions{
		// Comma-separated, blanks ignored, as ntpserver reads -upstream.
		Servers:  strings.FieldsFunc(server, func(r rune) bool { return r == ',' || r == ' ' }),
		Poll:     poll,
		MaxPoll:  poll, // a fixed cadence after warmup: no adaptive backoff
		Ensemble: tscclock.EnsembleOptions{Clock: tscclock.Options{UseLocalRate: local}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer live.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Printf("synchronizing against %s every %v, every %v during warmup (ctrl-c to stop)\n", server, poll, poll/4)
	live.Run(ctx, func(_ int, st tscclock.EnsembleStatus, err error) {
		if err != nil {
			fmt.Printf("%s exchange failed: %v\n", time.Now().Format(time.TimeOnly), err)
			return
		}
		fmt.Printf("%s rtt=%-10s offset=%-12s minRTT=%-10s absolute=%s\n",
			time.Now().Format(time.TimeOnly),
			timebase.FormatDuration(st.RTT),
			timebase.FormatDuration(st.Offset),
			timebase.FormatDuration(st.MinRTT),
			live.Now().Format(time.RFC3339Nano))
	})
}

func runSim(env, srv string, days, poll float64, seed uint64, local bool) {
	var e sim.Environment
	switch env {
	case "Lab":
		e = sim.Laboratory
	case "MR":
		e = sim.MachineRoom
	default:
		log.Fatalf("unknown environment %q (Lab or MR)", env)
	}
	var spec sim.ServerSpec
	switch srv {
	case "ServerLoc":
		spec = sim.ServerLoc()
	case "ServerInt":
		spec = sim.ServerInt()
	case "ServerExt":
		spec = sim.ServerExt()
	default:
		log.Fatalf("unknown server %q", srv)
	}

	scenario := sim.NewScenario(e, spec, poll, days*timebase.Day, seed)
	st, err := sim.NewStream(scenario)
	if err != nil {
		log.Fatal(err)
	}
	st.SetTrim(true)
	clock, errs, fed, lost := score(tscclock.Options{
		NominalPeriod: 1 / scenario.Oscillator.NominalHz,
		PollPeriod:    poll,
		UseLocalRate:  local,
	}, func() (capture.Record, bool) {
		ex, ok := st.Next()
		return capture.FromExchange(ex), ok
	})

	fmt.Printf("scenario %s: %.1f days at poll %.0fs (%d exchanges, %d lost)\n",
		scenario.Name, days, poll, fed+lost, lost)
	fmt.Printf("rate error:      %+.4f PPM\n", timebase.PPM(clock.Period()/st.Osc().MeanPeriod()-1))
	printErrors(errs)
}
