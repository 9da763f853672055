package sim

import (
	"math/bits"
	"runtime"
	"syscall"
	"unsafe"
)

// usableCPUs is how many CPUs the calling thread may run on: the CPUs
// its affinity mask allows, at most GOMAXPROCS. A caller that pinned
// its thread to one CPU gets one stamping worker.
func usableCPUs() int {
	var mask [128]byte // 1024 CPUs, the kernel's default cpumask size
	n, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, uintptr(len(mask)), uintptr(unsafe.Pointer(&mask)))
	procs := runtime.GOMAXPROCS(0)
	if e != 0 {
		return procs
	}
	cpus := 0
	for _, b := range mask[:n] {
		cpus += bits.OnesCount8(b)
	}
	return max(1, min(cpus, procs))
}
