//go:build !amd64

package oscillator

// cosKernel is the kernel's place in cos4; there is none off amd64, and
// the Go expression takes every lane.
func cosKernel(float64, *quad) (c [4]float64, done int) { return }
