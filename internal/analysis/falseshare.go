package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/cacheline"
)

// FalseShare keeps writer-touched memory off the cache lines readers
// poll. A struct field declared //repro:polled — the published-readout
// pointers, and the pointer the public wrappers' read methods start
// from — is a word other cores load continuously while one core writes
// its neighbours; the hand-off is one line transfer per publication
// only while that word has its line to itself. The analyzer computes
// the struct's layout from go/types sizes and requires cacheline.Size
// bytes of blank space (`_` fields) on both sides of the word, inside
// the struct, so the guarantee holds wherever the allocator or an
// enclosing struct puts it: a named field inside that window is
// reported, and so is a window cut short by the start or end of the
// struct. The layout is checked for amd64, arm64 and 386 — a pad built
// from pointer-sized words is half as long on a 32-bit target. No test
// catches a field added next to a polled word: everything still passes,
// only the contended write gets slower (PERF.md "PR 14").
var FalseShare = &Analyzer{
	Name:   "falseshare",
	Doc:    "require a cache line of blank padding on both sides of every //repro:polled struct field (amd64, arm64, 386 layouts)",
	Waiver: "falseshare-ok",
	Run:    runFalseShare,
}

// layoutArches are the targets a layout is checked for: the two the
// relay runs on, and a 32-bit one.
var layoutArches = []string{"amd64", "arm64", "386"}

// polledWord is one //repro:polled field of a named struct type.
type polledWord struct {
	owner *ast.TypeSpec
	st    *types.Struct
	index int // of the field in st
}

// polledWords finds the //repro:polled fields of the struct types
// declared in files. The directive goes in the field's doc comment or
// at the end of its line.
func polledWords(files []*ast.File, info *types.Info) []polledWord {
	var out []polledWord
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			lit, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			st, ok := info.TypeOf(lit).(*types.Struct)
			if !ok {
				return true
			}
			index := 0
			for _, fld := range lit.Fields.List {
				n := max(len(fld.Names), 1) // an embedded field has no name and is one field
				if groupDirectives(fld.Doc)[DirPolled] || groupDirectives(fld.Comment)[DirPolled] {
					for k := range n {
						out = append(out, polledWord{ts, st, index + k})
					}
				}
				index += n
			}
			return true
		})
	}
	return out
}

func runFalseShare(pass *Pass) {
	for _, w := range polledWords(pass.Files, pass.Info) {
		checkPolledWord(pass, w)
	}
}

// checkPolledWord reports what shares a line with one polled word: per
// side, every named field inside the window, or else the struct's own
// edge when it cuts the window short. One finding per culprit, naming
// the targets it holds on.
func checkPolledWord(pass *Pass, w polledWord) {
	const line = cacheline.Size
	n := w.st.NumFields()
	fields := make([]*types.Var, n)
	for i := range fields {
		fields[i] = w.st.Field(i)
	}
	word := fields[w.index].Name()

	near := make([][]string, n) // per field: "arch (N bytes away)"
	var shortBefore, shortAfter []string
	for _, arch := range layoutArches {
		sizes := types.SizesFor("gc", arch)
		offs := sizes.Offsetsof(fields)
		start := offs[w.index]
		end := start + sizes.Sizeof(fields[w.index].Type())
		namedBefore, namedAfter := false, false
		for j, f := range fields {
			size := sizes.Sizeof(f.Type())
			if j == w.index || f.Name() == "_" || size == 0 {
				continue
			}
			var gap int64
			if j < w.index {
				gap = start - (offs[j] + size)
			} else {
				gap = offs[j] - end
			}
			if gap < line {
				near[j] = append(near[j], fmt.Sprintf("%s (%d bytes away)", arch, gap))
				namedBefore = namedBefore || j < w.index
				namedAfter = namedAfter || j > w.index
			}
		}
		if !namedBefore && start < line {
			shortBefore = append(shortBefore, fmt.Sprintf("%s (%d bytes)", arch, start))
		}
		if tail := sizes.Sizeof(w.st) - end; !namedAfter && tail < line {
			shortAfter = append(shortAfter, fmt.Sprintf("%s (%d bytes)", arch, tail))
		}
	}

	for j, on := range near {
		if len(on) > 0 {
			pass.Reportf(fields[j].Pos(), "field %s shares a cache line with //repro:polled %s.%s on %s: every write to it takes the line readers poll; move it %d bytes away behind a blank pad",
				fields[j].Name(), w.owner.Name.Name, word, strings.Join(on, ", "), line)
		}
	}
	for _, side := range []struct {
		where string
		on    []string
	}{{"before", shortBefore}, {"after", shortAfter}} {
		if len(side.on) > 0 {
			pass.Reportf(fields[w.index].Pos(), "//repro:polled %s.%s has less than %d bytes of blank padding %s it inside the struct on %s: whatever the struct is laid out next to shares its line",
				w.owner.Name.Name, word, line, side.where, strings.Join(side.on, ", "))
		}
	}
}
