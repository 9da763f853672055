// Command tscd is the TSC-NTP synchronizer daemon. It runs the robust
// calibration pipeline in one of two modes:
//
//	-mode live  (default): poll one or more real NTP servers over UDP,
//	            stamping with the host's raw monotonic counter;
//	-mode sim:  replay a simulated scenario (environment x server) and
//	            report accuracy against the simulation's ground truth —
//	            useful to explore the algorithms without a network.
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
// post-processing workflow.
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
		mode   = flag.String("mode", "live", "live or sim")
		server = flag.String("server", "127.0.0.1:1123", "comma-separated NTP servers (live mode)")
		poll   = flag.Duration("poll", 64*time.Second, "polling interval")
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

// runReplay feeds a saved capture through the estimator and scores it
// against the recorded DAG reference stamps.
func runReplay(path string, local bool) {
	meta, recs, err := capture.LoadAll(path)
	if err != nil {
		log.Fatal(err)
	}
	clock, err := tscclock.New(tscclock.Options{
		NominalPeriod: 1 / meta.NominalHz,
		PollPeriod:    meta.PollPeriod,
		UseLocalRate:  local,
	})
	if err != nil {
		log.Fatal(err)
	}
	var errs []float64
	fed, lost := 0, 0
	for _, r := range recs {
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
	fmt.Printf("replayed %q (%s): %d exchanges fed, %d lost\n", path, meta.Name, fed, lost)
	if len(errs) == 0 {
		fmt.Println("trace too short to score (needs > 1 h)")
		return
	}
	fn := stats.FiveNumOf(errs)
	fmt.Printf("absolute clock error vs recorded reference:\n")
	fmt.Printf("  median %s, IQR %s\n",
		timebase.FormatDuration(stats.Median(errs)), timebase.FormatDuration(stats.IQR(errs)))
	fmt.Printf("  p01 %s  p25 %s  p50 %s  p75 %s  p99 %s\n",
		timebase.FormatDuration(fn.P01), timebase.FormatDuration(fn.P25),
		timebase.FormatDuration(fn.P50), timebase.FormatDuration(fn.P75),
		timebase.FormatDuration(fn.P99))
}

func runLive(server string, poll time.Duration, local bool) {
	live, err := tscclock.DialMultiLive(tscclock.MultiLiveOptions{
		// Comma-separated, blanks ignored, as ntpserver reads -upstream.
		Servers:  strings.FieldsFunc(server, func(r rune) bool { return r == ',' || r == ' ' }),
		Poll:     poll,
		MaxPoll:  poll, // a fixed cadence: no adaptive backoff
		Ensemble: tscclock.EnsembleOptions{Clock: tscclock.Options{UseLocalRate: local}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer live.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Printf("synchronizing against %s every %v (ctrl-c to stop)\n", server, poll)
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
	tr, err := sim.Generate(scenario)
	if err != nil {
		log.Fatal(err)
	}
	clock, err := tscclock.New(tscclock.Options{
		NominalPeriod: 1 / scenario.Oscillator.NominalHz,
		PollPeriod:    poll,
		UseLocalRate:  local,
	})
	if err != nil {
		log.Fatal(err)
	}

	var errs []float64
	for _, ex := range tr.Completed() {
		if _, err := clock.ProcessNTPExchange(ex.Ta, ex.Tf, ex.Tb, ex.Te); err != nil {
			log.Fatal(err)
		}
		if ex.TrueTf > timebase.Hour {
			errs = append(errs, clock.AbsoluteTime(ex.Tf)-ex.Tg)
		}
	}

	rateErr := timebase.PPM(clock.Period()/tr.Osc.MeanPeriod() - 1)
	fmt.Printf("scenario %s: %.1f days at poll %.0fs (%d exchanges, %d lost)\n",
		scenario.Name, days, poll, len(tr.Exchanges), tr.LossCount())
	fmt.Printf("rate error:      %+.4f PPM\n", rateErr)
	fmt.Printf("absolute clock:  median err %s, IQR %s, |median| %s\n",
		timebase.FormatDuration(stats.Median(errs)),
		timebase.FormatDuration(stats.IQR(errs)),
		timebase.FormatDuration(math.Abs(stats.Median(errs))))
	fn := stats.FiveNumOf(errs)
	fmt.Printf("percentiles:     p01 %s  p25 %s  p50 %s  p75 %s  p99 %s\n",
		timebase.FormatDuration(fn.P01), timebase.FormatDuration(fn.P25),
		timebase.FormatDuration(fn.P50), timebase.FormatDuration(fn.P75),
		timebase.FormatDuration(fn.P99))
}
