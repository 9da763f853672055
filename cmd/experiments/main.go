// Command experiments regenerates the tables and figures of the paper's
// evaluation. Each experiment prints the figures the paper reports
// plus shape checks (who wins, by what factor, where crossovers fall).
//
// Usage:
//
//	experiments -list
//	experiments -run fig12
//	experiments -run all -out artifacts/
//	experiments -run longrun -days 28 -out artifacts/
//
// The exit status is the gate: 0 when every check of every experiment
// run passed, 2 when one failed, 1 on an error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		run  = flag.String("run", "all", "experiment id to run, or 'all'")
		list = flag.Bool("list", false, "list experiment ids and exit")
		seed = flag.Uint64("seed", 0, "override the deterministic seed (0 = default)")
		out  = flag.String("out", "", "directory for TSV artifacts and accuracy.json, the run's figures, checks and table digests (optional)")
		days = flag.Float64("days", 0, "longrun trace length in days (0 = default 21; streams at constant memory)")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-9s %s\n", id, experiments.Title(id))
		}
		return
	}

	opts := experiments.Options{Seed: *seed, OutputDir: *out, LongRunDays: *days}
	ids := []string{*run}
	if *run == "all" {
		ids = experiments.IDs()
	}

	failed := 0
	var reps []*experiments.Report
	for _, id := range ids {
		start := time.Now()
		rep, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Print(rep.Render())
		fmt.Printf("(%s in %.1fs", id, time.Since(start).Seconds())
		if rep.PeakHeap > 0 {
			fmt.Printf(", peak heap %.1f MB", float64(rep.PeakHeap)/(1<<20))
		}
		fmt.Print(")\n\n")
		if !rep.Passed() {
			failed++
		}
		if *out != "" {
			reps = append(reps, rep)
		}
	}
	if *out != "" {
		err := os.MkdirAll(*out, 0o755)
		if err == nil {
			err = os.WriteFile(filepath.Join(*out, "accuracy.json"), experiments.AccuracyJSON(reps), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "accuracy record: %v\n", err)
			os.Exit(1)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) had failing checks\n", failed)
		os.Exit(2)
	}
}
