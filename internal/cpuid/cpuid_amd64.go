package cpuid

// AVX2 reports whether the CPU and the operating system support the
// AVX2 kernels.
var AVX2 = hasAVX2()

// hasAVX2 asks CPUID for AVX, AVX2 and OSXSAVE, and XGETBV whether the
// OS saves the YMM state.
func hasAVX2() bool
