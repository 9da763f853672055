// Command bench is the repository's benchmark: four workloads over the
// whole stack (the stratum-2 relay under open- and closed-loop load,
// the sync engine replaying a long trace, clock reads beside writes),
// each checked for correct output, each reporting the end-to-end and
// per-layer metrics that BENCHMARK.json at the repository root lists.
// See README.md in this directory, a module of its own: run from here.
//
//	go run .                               every workload, each in a fresh child process
//	go run . -workload relay-open          one workload in this process
//	go run . -trace 1                      the traced runs: per-layer metrics and spans
//	go run . -runs 10 -out new.json        ten runs a workload, kept for -compare
//	go run . -compare old.json new.json    one row per workload and end-to-end metric
//	go run . -quick                        1 s windows, a smoke test
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
		seed     = fs.Uint64("seed", 1, "workload seed: the same seed gives the same requests and the same trace")
		seconds  = fs.Float64("seconds", 20, "length of the timed window")
		trace    = fs.Int("trace", 0, "1 = the traced run: per-layer metrics and spans, at a third of the window")
		quick    = fs.Bool("quick", false, "1 s windows and one set-up: a smoke test whose numbers mean nothing")
		runs     = fs.Int("runs", 1, "runs per workload, with seeds seed, seed+1, …")
		out      = fs.String("out", "", "write every run to this result file, for -compare")
		spans    = fs.String("spans", "", "where a traced run writes its spans (default .bench_out/spans-<workload>.json)")
		compare  = fs.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *quick {
		*seconds = 1
	}
	if *workload == "" {
		return runAll(stdout, *seed, *seconds, *trace, *quick, *runs, *out)
	}

	wl, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	p := params{seed: *seed, seconds: *seconds, traced: *trace != 0, setups: 5, quick: *quick, spans: *spans}
	if *quick || p.traced {
		p.setups = 1 // a traced run reports no set-up time
	}
	if p.traced && p.spans == "" {
		p.spans = filepath.Join(".bench_out", "spans-"+wl.Name+".json")
	}
	box := describeMachine()
	fmt.Fprintf(stdout, "machine: %+v\n", box)
	res, err := wl.run(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.Name, err)
		return 1
	}
	res.print(stdout)
	if *out != "" {
		if err := writeResultFile(*out, &resultFile{Machine: box, Runs: []runResult{*res}}); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, res.driverLine())
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload `runs` times, each run in a fresh child
// process of this program, so that neither garbage-collector state
// nor the resident-set high-water mark leaks from one run into the
// next.
func runAll(stdout io.Writer, seed uint64, seconds float64, trace int, quick bool, runs int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(".", ".bench_run")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	all := &resultFile{Machine: describeMachine()}
	status := 0
	for _, wl := range workloads {
		for i := 0; i < runs; i++ {
			part := filepath.Join(tmp, "run.json")
			args := []string{"-workload", wl.Name, "-seed", fmt.Sprint(seed + uint64(i)),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", part}
			if quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.Name, err)
				status = 1
			}
			if rf, err := readResultFile(part); err == nil {
				all.Runs = append(all.Runs, rf.Runs...)
			}
			os.Remove(part)
		}
	}
	if out != "" {
		if err := writeResultFile(out, all); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	return status
}
