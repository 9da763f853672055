// Package analysis implements reprolint: five static analyzers that
// enforce, over the whole module and at every call site, invariants the
// clock's robustness argument rests on — deterministic packages never
// read the wall clock, the packet path does not allocate, reads take no
// lock, a published readout is never mutated, and no writer-touched
// field shares a cache line with a word readers poll. ARCHITECTURE.md's
// Invariants table gives each analyzer its row beside the tests that
// check the same property at run time.
//
// The suite is driven by directive comments. A directive is a comment
// line that begins exactly with "//repro:" (no space, mirroring the
// //go: convention); prose that merely mentions a directive mid-line
// is never a directive.
//
// Package directive (in the package doc comment of any file):
//
//	//repro:deterministic
//
// marks every file of the package as wall-clock-free: the wallclock
// analyzer forbids time.Now/Since/Until, sleeps, timers, tickers, the
// global math/rand generators and crypto/rand. Simulated time comes in
// through inputs; randomness through an explicitly seeded source.
//
// Function directives (in the doc comment of a func/method):
//
//	//repro:hotpath
//
// marks a per-packet function. The hotpathalloc analyzer flags
// allocation-inducing constructs (append, make, new, slice/map
// literals, &composite literals, fmt calls, string concatenation,
// interface boxing, escaping closures, go statements, string<->[]byte
// conversions) in the function and in every same-package function it
// statically calls, transitively.
//
//	//repro:readpath
//
// marks a lock-free read function: a pure function of a published
// snapshot. The lockfreeread analyzer forbids sync lock acquisition,
// channel operations, goroutine spawns, atomic mutations (anything but
// Load), and writes to receiver or package-level state — again
// including same-package static callees.
//
// Type directive (on a type declaration):
//
//	//repro:immutable
//
// marks a publish-then-never-mutate snapshot type. The atomicpub
// analyzer flags every write to a field of such a type (directly,
// through pointers, or into elements of its slice fields) anywhere in
// the module, except inside functions annotated
//
//	//repro:builder
//
// — the constructor/builder set that fills a snapshot before it is
// published.
//
// Field directive (in the doc comment of a struct field, or at the end
// of its line):
//
//	//repro:polled
//
// marks a word other cores load continuously while one core writes
// around it: a published-readout pointer, or the pointer a wrapper's
// lock-free read methods start from. The falseshare analyzer lays the
// struct out with go/types sizes for amd64, arm64 and 386 and requires
// a cache line (internal/cacheline.Size bytes) of blank `_` padding on
// both sides of the word inside the struct: a named field inside that
// window is flagged, and so is a window the struct's own start or end
// cuts short.
//
// Waivers. Every analyzer honors a line waiver that must carry a
// reason:
//
//	//repro:wallclock-ok <reason>   (wallclock)
//	//repro:alloc-ok <reason>       (hotpathalloc)
//	//repro:readpath-ok <reason>    (lockfreeread)
//	//repro:mutate-ok <reason>      (atomicpub)
//	//repro:falseshare-ok <reason>  (falseshare)
//
// placed at the end of the offending line or on the line directly
// above it. A waiver with no reason is itself reported: the point of a
// waiver is to put the justification in the diff. So is a waiver that
// suppresses nothing, so none outlives the construct it excused.
//
// The analyzers are deliberately conservative approximations. They see
// direct static calls only (calls through function values, interfaces,
// or other packages are out of scope), and hotpathalloc flags
// constructs that MAY allocate (an append into preallocated capacity
// is flagged and waived with the reason explaining the capacity
// argument). The runtime tests the analyzers back — the AllocsPerRun
// gates, the race suites — stay in place; reprolint is the static,
// whole-codebase layer above them.
//
// Everything here is stdlib-only: the loader parses and type-checks
// the module with go/parser and go/types using the source importer, so
// neither the module nor the tools need golang.org/x/tools.
package analysis
