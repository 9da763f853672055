package core

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/cpuid"
	"repro/internal/rng"
)

// requireKernel skips a kernel-vs-loop test on a CPU the kernel cannot
// run on, and otherwise puts the path updateOffset takes in the log.
func requireKernel(t testing.TB) {
	t.Helper()
	if !cpuid.AVX2 {
		t.Skip("no AVX2 kernel here (not amd64, or CPUID reports no OS-enabled AVX2): updateOffset scans with offsetScanLoop alone, there is nothing to compare")
	}
	t.Log("CPUID reports AVX2: updateOffset scans whole blocks of four with offsetScanAVX2, the tail with offsetScanLoop")
}

// checkKernelMatchesLoop scans one window twice — kernel over the
// whole blocks with the loop as its tail, exactly as offsetScan does,
// and the loop alone — and compares every lane of every accumulator as
// bits (which implies all three reduced outputs).
func checkKernelMatchesLoop(t testing.TB, win []scanRec, par *scanParams) {
	t.Helper()
	got, want := emptyLanes(), emptyLanes()
	done := scanBlocks(win, par, &got)
	if done != len(win)&^3 {
		t.Fatalf("kernel took %d of %d records", done, len(win))
	}
	offsetScanLoop(win, done, par, &got)
	offsetScanLoop(win, 0, par, &want)
	for l := 0; l < 4; l++ {
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"minET", got.minET[l], want.minET[l]},
			{"sumW", got.sumW[l], want.sumW[l]},
			{"sumWTheta", got.sumWTheta[l], want.sumWTheta[l]},
		} {
			if math.Float64bits(c.got) != math.Float64bits(c.want) {
				t.Fatalf("%d records, %+v: %s lane %d: kernel %b (%g), loop %b (%g)",
					len(win), *par, c.name, l, c.got, c.got, c.want, c.want)
			}
		}
	}
}

// randomScan draws one scan the engine could be asked for: a window of
// n records with ages from 0 to twice the age horizon, point errors
// that are zero, denormal, exactly at the cutoff, far beyond it or
// spread under it, and the cutoff at 9·E or at 25.9·E — E**/E just
// under the 26 its compile-time guard allows, where k>>8 reaches 975 and the kernel's
// exponent construction is exercised to its end — or, for the clamp's
// sake, at 40·E.
func randomScan(src *rng.Source, n int) ([]scanRec, scanParams) {
	e := 1e-6 * math.Exp(8*src.Float64())
	factor := float64(weightCutoffBase)
	switch u := src.Float64(); {
	case u < 0.1:
		factor = 40 // beyond what Validate admits: the 676 clamp binds
	case u < 0.55:
		factor = 25.9
	}
	par := scanParams{
		fnow:   1e9 + 1e15*src.Float64(),
		p:      1e-9 * (1 + 1e-4*src.StdNormal()),
		eps:    2e-8 * src.Float64(),
		invE:   1 / e,
		cutoff: factor * e,
	}
	if src.Bool(0.5) {
		par.gl = 1e-6 * src.StdNormal()
	}
	horizon := 2 * par.cutoff / (par.eps * par.p) // in counter units, doubled
	if src.Bool(0.3) {
		horizon = 16 * float64(n+1) / par.p // a paper-sized window: aging barely matters
	}
	farBlock := -1
	if n >= 4 && src.Bool(0.3) {
		farBlock = src.Intn(n / 4) // one block with all four records beyond the cutoff
	}
	win := make([]scanRec, n)
	for i := range win {
		r := &win[i]
		r.ftf = par.fnow - math.Floor(horizon*float64(n-1-i)/float64(n)*src.Float64())
		r.theta = 1e-3 * src.StdNormal()
		switch u := src.Float64(); {
		case i/4 == farBlock || u < 0.1:
			r.pointErr = par.cutoff * (1.01 + 30*src.Float64())
		case u < 0.2:
			r.pointErr = 0
		case u < 0.25:
			r.pointErr = 5e-324 * float64(1+src.Intn(1000))
		case u < 0.3:
			r.ftf, r.pointErr = par.fnow, par.cutoff // E^T = cutoff exactly: kept
		default:
			r.pointErr = par.cutoff * 1.05 * src.Float64()
		}
	}
	return win, par
}

// TestOffsetScanKernelMatchesLoop: the AVX2 kernel and the portable
// loop are one function. Every window length from 0 to 131 (every
// residue mod 4, so every tail), many draws each; then windows starting
// at every offset into a longer slice, which is what the engine's
// contiguous scan window hands the kernel: τ′ wherever it sits in the
// backing array.
func TestOffsetScanKernelMatchesLoop(t *testing.T) {
	requireKernel(t)
	src := rng.New(19)
	for n := 0; n <= 131; n++ {
		for rep := 0; rep < 150; rep++ {
			win, par := randomScan(src, n)
			checkKernelMatchesLoop(t, win, &par)
		}
	}
	t.Run("window-offsets", func(t *testing.T) {
		for rep := 0; rep < 40; rep++ {
			backing, par := randomScan(src, 2*131)
			for start := range backing {
				n := src.Intn(min(131, len(backing)-start) + 1)
				checkKernelMatchesLoop(t, backing[start:start+n], &par)
			}
		}
	})
}

// FuzzOffsetScan feeds the kernel and the loop records and parameters
// straight from the fuzzer's bytes, folded into the scan's domain —
// finite, point errors and ε non-negative, no record newer than now,
// magnitudes that cannot overflow — and nothing narrower: cutoffs the
// engine never uses, denormals, huge ages and both signs of θ and γ_l
// are all fair, and the two must still agree bit for bit.
func FuzzOffsetScan(f *testing.F) {
	requireKernel(f)
	seed := func(n int, s uint64) []byte {
		win, par := randomScan(rng.New(s), n)
		buf := make([]byte, 0, 8*(6+3*n))
		for _, v := range []float64{par.fnow, par.p, par.eps, par.invE, par.cutoff, par.gl} {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		for _, r := range win {
			for _, v := range []float64{par.fnow - r.ftf, r.pointErr, r.theta} {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		}
		return buf
	}
	for n := 0; n <= 9; n++ {
		f.Add(seed(n, uint64(n)))
	}
	f.Add(seed(63, 63))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() float64 { // the next 8 bytes as a finite float64 of bounded magnitude
			if len(data) < 8 {
				return 0
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			if !(math.Abs(v) <= 1e60) {
				return 1
			}
			return v
		}
		par := scanParams{
			fnow: math.Abs(next()), p: math.Abs(next()), eps: math.Abs(next()),
			invE: math.Abs(next()), cutoff: math.Abs(next()), gl: next(),
		}
		win := make([]scanRec, min(len(data)/24, 131))
		for i := range win {
			win[i] = scanRec{ftf: par.fnow - math.Abs(next()), pointErr: math.Abs(next()), theta: next()}
		}
		checkKernelMatchesLoop(t, win, &par)
	})
}
