// Package cpuid is the one CPU-feature probe the assembly kernels
// dispatch on. AVX2 is read once, from CPUID and XGETBV, when the
// program starts; it is false off amd64, where no kernel is built.
// Nothing else selects a kernel: no build tag, flag or environment
// variable. The kernels it gates are the offset filter's weighted scan
// (internal/core) and the oscillator's four-lane cosine
// (internal/oscillator), each held bit for bit to the Go code that runs
// where AVX2 is absent.
package cpuid
