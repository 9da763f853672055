//go:build !amd64

package core

// haveAVX2 is false off amd64: offsetScanLoop is the whole scan.
const haveAVX2 = false

// scanBlocks is the kernel's place in offsetScan; there is none here.
func scanBlocks([]scanRec, *scanParams, *scanLanes) int { return 0 }
