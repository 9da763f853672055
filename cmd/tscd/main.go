// Command tscd is the TSC-NTP synchronizer daemon. It runs the robust
// calibration pipeline in one of two modes:
//
//	-mode live   (default): poll one or more real NTP servers over UDP,
//	             stamping with the host's raw monotonic counter;
//	-mode replay: score the estimator on a saved capture file.
//
// Usage:
//
//	tscd -mode live -server 127.0.0.1:1123 -poll 16s
//	tscd -mode replay -trace mrint.tsctrc
//
// Replay mode consumes captures produced by cmd/tracegen (or any tool
// writing the internal/capture format) and scores the estimator against
// the recorded reference stamps, mirroring the paper's offline
// post-processing workflow: to explore a simulated scenario, write it
// with tracegen and replay it here. It runs in constant memory: the
// printed percentiles are exact while at most 32 768 exchanges are
// scored (a one-day capture at 16 s polls scores ≈ 5 200), and on
// longer captures each lies within 2⁻⁸·|x| + 1 ns of the exact order
// statistics beside its rank.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/signal"
	"strings"
	"time"

	tscclock "repro"
	"repro/internal/capture"
	"repro/internal/stats"
	"repro/internal/timebase"
)

func main() {
	var (
		mode   = flag.String("mode", "live", "live or replay")
		server = flag.String("server", "127.0.0.1:1123", "comma-separated NTP servers (live mode)")
		poll   = flag.Duration("poll", 64*time.Second, "polling interval (live mode); warmup polls at a quarter of it")
		local  = flag.Bool("localrate", false, "enable the local-rate refinement")

		traceFile = flag.String("trace", "", "capture file (replay mode)")
	)
	flag.Parse()

	switch *mode {
	case "live":
		runLive(*server, *poll, *local)
	case "replay":
		if err := replay(os.Stdout, *traceFile, *local); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
}

// replay streams a saved capture record by record, feeds every
// completed exchange through a fresh clock and, past the first hour,
// folds the absolute clock's error against the recorded DAG reference
// stamps into a stats.ErrFold, then prints its summary to w.
func replay(w io.Writer, path string, local bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd, err := capture.NewReader(f)
	if err != nil {
		return err
	}
	meta := rd.Meta()
	clock, err := tscclock.New(tscclock.Options{
		NominalPeriod: 1 / meta.NominalHz,
		PollPeriod:    meta.PollPeriod,
		UseLocalRate:  local,
	})
	if err != nil {
		return err
	}
	errs := stats.NewErrFold()
	fed, lost := 0, 0
	for {
		r, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if r.Lost {
			lost++
			continue
		}
		if _, err := clock.ProcessNTPExchange(r.Ta, r.Tf, r.Tb, r.Te); err != nil {
			return err
		}
		fed++
		if r.TrueTf > timebase.Hour {
			errs.Add(clock.AbsoluteTime(r.Tf) - r.Tg)
		}
	}
	fmt.Fprintf(w, "replayed %q (%s): %d exchanges fed, %d lost\n", path, meta.Name, fed, lost)
	if errs.N() == 0 {
		fmt.Fprintln(w, "trace too short to score (needs > 1 h)")
		return nil
	}
	s := errs.Summary()
	fmt.Fprintf(w, "absolute clock:  median err %s, IQR %s, |median| %s\n",
		timebase.FormatDuration(s.P50), timebase.FormatDuration(s.IQR()),
		timebase.FormatDuration(math.Abs(s.P50)))
	fmt.Fprintf(w, "percentiles:     p01 %s  p25 %s  p50 %s  p75 %s  p99 %s\n",
		timebase.FormatDuration(s.P01), timebase.FormatDuration(s.P25),
		timebase.FormatDuration(s.P50), timebase.FormatDuration(s.P75),
		timebase.FormatDuration(s.P99))
	return nil
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
