//go:build linux

package main

import (
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// rusageThread is RUSAGE_THREAD, which package syscall does not name.
const rusageThread = 1

func tvNs(tv syscall.Timeval) int64 { return int64(tv.Sec)*1e9 + int64(tv.Usec)*1e3 }

// readCPU reads the process's and the calling thread's CPU clocks.
// Call it from a goroutine locked to its thread.
func readCPU() cpuTimes {
	var p, t syscall.Rusage
	// Getrusage fails only for a bad who or pointer; neither can happen.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &p)
	_ = syscall.Getrusage(rusageThread, &t)
	return cpuTimes{
		process: tvNs(p.Utime) + tvNs(p.Stime),
		thread:  tvNs(t.Utime) + tvNs(t.Stime),
	}
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// setAffinity restricts thread tid (0 = the calling thread) to the
// CPUs set in mask.
func setAffinity(tid int, mask uint64) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), 8, uintptr(unsafe.Pointer(&mask)))
	if e != 0 {
		return e
	}
	return nil
}

// eachThread applies mask to every existing thread of the process,
// and so to every thread they later create.
func eachThread(mask uint64) bool {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return false
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil || setAffinity(tid, mask) != nil {
			return false
		}
	}
	return true
}

// isolateLoadCPU reserves the last CPU for the benchmark's load thread
// by moving every thread of the process onto the others; release
// undoes it. ok is false, and nothing has changed, with one CPU or
// when the kernel refuses: the load thread then floats.
func isolateLoadCPU() (release func(), ok bool) {
	n := runtime.NumCPU()
	if n < 2 || n > 64 {
		return func() {}, false
	}
	all := ^uint64(0) >> (64 - n)
	if !eachThread(all &^ (1 << (n - 1))) {
		eachThread(all)
		return func() {}, false
	}
	return func() { eachThread(all) }, true
}

// pinLoadThread moves the calling thread, which must be locked to its
// goroutine and must end with it, onto the reserved CPU.
func pinLoadThread() {
	_ = setAffinity(0, uint64(1)<<(runtime.NumCPU()-1)) // on refusal the thread floats, as without isolation
}

// growReceiveBuffer asks for a socket receive buffer of size bytes,
// past net.core.rmem_max when the process may (SO_RCVBUFFORCE needs
// CAP_NET_ADMIN), else as far as rmem_max allows.
func growReceiveBuffer(c *net.UDPConn, size int) {
	const soRcvbufforce = 33
	rc, err := c.SyscallConn()
	forced := false
	if err == nil {
		_ = rc.Control(func(fd uintptr) {
			forced = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soRcvbufforce, size) == nil
		})
	}
	if !forced {
		_ = c.SetReadBuffer(size) // best effort: the kernel caps it silently
	}
}
