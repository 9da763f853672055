package main

import (
	"os"
	"runtime"
	"strings"
)

// machine describes where a set of runs was taken; -compare prints
// both sides' descriptors so numbers from different boxes are never
// compared by accident.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go"`
	OSArch     string `json:"os_arch"`
	Network    string `json:"network"`
}

func describeMachine() machine {
	return machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        firstField("/proc/cpuinfo", "model name"),
		Kernel:     strings.TrimSpace(readOr("/proc/sys/kernel/osrelease", "unknown")),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Network:    "loopback, shared box",
	}
}

func readOr(path, fallback string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return fallback
	}
	return string(b)
}

// firstField returns the value of the first "key : value" line of a
// /proc-style file, or "unknown".
func firstField(path, key string) string {
	for _, line := range strings.Split(readOr(path, ""), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
