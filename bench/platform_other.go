//go:build !linux

package main

import (
	"net"
	"runtime"
	"time"
)

var processStart = time.Now()

// readCPU has no per-thread CPU clock to read off Linux: the process
// figure is wall time since start (an upper bound for one busy
// thread) and the thread figure is zero, so the split charges
// everything to the server side.
func readCPU() cpuTimes {
	return cpuTimes{process: int64(time.Since(processStart))}
}

// peakRSSMB falls back to the Go runtime's view of memory obtained
// from the OS.
func peakRSSMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// isolateLoadCPU and pinLoadThread need sched_setaffinity: off Linux
// the load thread floats.
func isolateLoadCPU() (release func(), ok bool) { return func() {}, false }

func pinLoadThread() {}

// growReceiveBuffer asks for a socket receive buffer of size bytes, as
// far as the system allows.
func growReceiveBuffer(c *net.UDPConn, size int) {
	_ = c.SetReadBuffer(size) // best effort: the system caps it silently
}
