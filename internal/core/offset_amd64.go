package core

import (
	"math"

	"repro/internal/cpuid"
)

// offsetScanAVX2 sets *acc to what offsetScanLoop makes of empty lanes
// and nblocks whole blocks of four records starting at recs, record i
// of a block in lane i, bit for bit on finite inputs. It reads
// 96·nblocks bytes and nothing past them.
//
//go:noescape
func offsetScanAVX2(recs *scanRec, nblocks int, par *scanParams, acc *scanLanes)

// scanBlocks runs the kernel over win's whole blocks of four, from
// empty lanes, and returns how many records that was: where
// offsetScanLoop takes over.
func scanBlocks(win []scanRec, par *scanParams, acc *scanLanes) int {
	if !cpuid.AVX2 || len(win) < 4 {
		return 0
	}
	offsetScanAVX2(&win[0], len(win)/4, par, acc)
	return len(win) &^ 3
}

// scanK is the kernel's constant table, one row of four equal lanes per
// constant so each is a memory operand; the K_* offsets in
// offset_amd64.s index it in this order. The values are the Go
// constants expNeg and offsetScanLoop compute with, the three integer
// rows their masks and the exponent bias as lane bits.
var scanK = [...][4]float64{
	lanes(676),
	lanes(invLn2x256),
	lanes(expShift),
	lanes(math.Float64frombits(1<<32 - 1)), // k: the low 32 mantissa bits of t
	lanes(math.Float64frombits(255)),       // k & 255
	lanes(math.Float64frombits(1023)),      // 2^−(k>>8) = (1023 − k>>8) << 52
	lanes(ln2Hi256),
	lanes(ln2Lo256),
	lanes(1.0 / 6),
	lanes(0.5),
	lanes(1),
	lanes(math.Inf(1)),
}

func lanes(x float64) [4]float64 { return [4]float64{x, x, x, x} }
