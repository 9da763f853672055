//go:build !linux

package sim

import "runtime"

// usableCPUs is how many CPUs generation may use: GOMAXPROCS.
func usableCPUs() int { return runtime.GOMAXPROCS(0) }
