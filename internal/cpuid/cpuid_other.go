//go:build !amd64

package cpuid

// AVX2 is false off amd64: there is no kernel to run.
const AVX2 = false
