package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// compareFiles prints one row per workload and end-to-end metric of
// two result files and returns 1 if any row regressed.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	oldF, err := readResultFile(oldPath)
	if err == nil {
		var newF *resultFile
		if newF, err = readResultFile(newPath); err == nil {
			return compareResults(w, oldF, newF)
		}
	}
	fmt.Fprintf(w, "bench: %v\n", err)
	return 2
}

// verdicts of one row.
const (
	vOK         = "ok"
	vImproved   = "improved"
	vRegression = "REGRESSION"
	vUnresolved = "unresolved"
	vRefused    = "refused"
	vMissing    = "missing"
)

// minRuns is how many runs a side needs before its quartiles mean
// anything; with fewer, a row can only be unresolved.
const minRuns = 5

// judge compares the runs of one metric. A side's figure is the
// median of its runs; the change is a regression when the new median
// is worse than the old by more than bound (a share of the old median,
// or an absolute amount when abs is set). When either side's own
// quartile spread exceeds the bound, or a side has fewer than minRuns
// runs, the runs cannot resolve a change of that size, and the row
// says unresolved rather than ok — unless every new run beats every
// old run, which no amount of spread can explain away, or the two sides
// read the same seed by seed (identical), as the fixed-seed accuracy
// rows do.
func judge(oldV, newV []float64, identical, lowerBetter bool, bound float64, abs bool) (verdict string, oldMed, newMed, worse float64) {
	if len(oldV) == 0 || len(newV) == 0 {
		return vMissing, math.NaN(), math.NaN(), 0
	}
	oldMed, newMed = median(append([]float64(nil), oldV...)), median(append([]float64(nil), newV...))
	worse = newMed - oldMed
	if !lowerBetter {
		worse = -worse
	}
	limit := bound
	if !abs {
		worse /= math.Abs(oldMed)
	}
	allBetter := true
	for _, n := range newV {
		for _, o := range oldV {
			if (lowerBetter && n >= o) || (!lowerBetter && n <= o) {
				allBetter = false
			}
		}
	}
	enough := len(oldV) >= minRuns && len(newV) >= minRuns
	switch {
	case identical:
		return vOK, oldMed, newMed, worse
	case allBetter && enough:
		return vImproved, oldMed, newMed, worse
	case !enough, !abs && (spread(oldV) > bound || spread(newV) > bound):
		return vUnresolved, oldMed, newMed, worse
	case worse > limit:
		return vRegression, oldMed, newMed, worse
	case worse < -limit:
		return vImproved, oldMed, newMed, worse
	}
	return vOK, oldMed, newMed, worse
}

// values collects one metric of one workload over a file's clean
// runs, with the seed of each, and counts the runs set aside: those
// the noise guard marked, and -quick runs, whose numbers mean nothing.
func values(rf *resultFile, workload, metric string, pick func(*runResult) []reported) (vs []float64, seeds []uint64, aside int) {
	for i := range rf.Runs {
		r := &rf.Runs[i]
		if r.Workload != workload || r.Traced {
			continue
		}
		m, ok := lookup(pick(r), metric)
		switch {
		case !ok: // not a metric of this workload
		case r.Noisy || r.Quick:
			aside++
		default:
			vs, seeds = append(vs, m.Value), append(seeds, r.Seed)
		}
	}
	return vs, seeds, aside
}

// sameBySeed reports whether two sides hold the same seeds and read
// the same on each.
func sameBySeed(oldV, newV []float64, oldSeeds, newSeeds []uint64) bool {
	if len(oldV) == 0 || len(oldV) != len(newV) {
		return false
	}
	bySeed := make(map[uint64]float64, len(oldV))
	for i, s := range oldSeeds {
		bySeed[s] = oldV[i]
	}
	for i, s := range newSeeds {
		if v, ok := bySeed[s]; !ok || v != newV[i] {
			return false
		}
	}
	return true
}

func compareResults(w io.Writer, oldF, newF *resultFile) int {
	fmt.Fprintf(w, "old: %+v\nnew: %+v\n", oldF.Machine, newF.Machine)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median\tnew median\tworse by\tbound\truns\tverdict")
	status := 0
	row := func(wl string, d metricDef, pick func(*runResult) []reported) {
		oldV, oldSeeds, oldNoisy := values(oldF, wl, d.Name, pick)
		newV, newSeeds, newNoisy := values(newF, wl, d.Name, pick)
		if len(oldV)+len(newV) == 0 && oldNoisy+newNoisy == 0 {
			return // not a metric of this workload
		}
		abs, bound := d.Name == "fail_frac", d.Bound
		if abs {
			bound = failFracSlack
		}
		verdict, om, nm, worse := judge(oldV, newV, sameBySeed(oldV, newV, oldSeeds, newSeeds), d.Better == "lower", bound, abs)
		if verdict == vMissing && oldNoisy+newNoisy > 0 {
			verdict = vRefused // every run of a side was set aside
		}
		if verdict == vRegression || verdict == vMissing || verdict == vRefused {
			status = 1
		}
		unit := "%"
		if abs {
			unit = ""
		} else {
			worse, bound = worse*100, bound*100
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%s\t%.3g%s\t%d+%d (set aside %d+%d)\t%s\n",
			wl, d.Name, d.Unit, om, nm, worse, unit, bound, unit, len(oldV), len(newV), oldNoisy, newNoisy, verdict)
	}
	for _, wl := range workloads {
		for _, d := range gateMetrics {
			row(wl.Name, d, func(r *runResult) []reported { return r.Gate })
		}
		for _, d := range ownMetrics {
			if _, gated := findMetric(gateMetrics, d.Name); !gated {
				row(wl.Name, d, func(r *runResult) []reported { return r.Own })
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return 2
	}
	return status
}
