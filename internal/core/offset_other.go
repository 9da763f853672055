//go:build !amd64

package core

// scanBlocks is the kernel's place in offsetScan; there is none off
// amd64: offsetScanLoop is the whole scan.
func scanBlocks([]scanRec, *scanParams, *scanLanes) int { return 0 }
