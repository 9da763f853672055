package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one reprolint check. The shape deliberately mirrors
// golang.org/x/tools/go/analysis so the checks could migrate onto the
// official driver if the dependency ever becomes available; reprolint
// carries its own stdlib-only runner instead (see doc.go).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics ("wallclock").
	Name string
	// Doc is the one-paragraph description the CLI prints for -list.
	Doc string
	// Waiver is the waiver directive suffix honored by this analyzer
	// ("wallclock-ok"); empty means findings cannot be waived.
	Waiver string
	// Run reports this analyzer's findings for one package.
	Run func(*Pass)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Dirs is this package's directive index.
	Dirs *Directives
	// Global is the cross-package directive registry.
	Global *Registry

	diags *[]Diagnostic
}

// Reportf records a finding at pos. Waivers are applied by the runner,
// not here, so analyzers stay oblivious to suppression.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		dirs:     p.Dirs,
		waiver:   p.Analyzer.Waiver,
	})
}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string

	dirs   *Directives
	waiver string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// All returns the full reprolint analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{Wallclock, HotPathAlloc, LockFreeRead, AtomicPub, FalseShare}
}

// Run executes the analyzers over every loaded package, applies
// waivers, and returns the surviving diagnostics sorted by position.
// A waiver with an empty reason does not suppress anything — it is
// converted into its own diagnostic instead, so every suppression in
// the tree documents why.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	reg := NewRegistry(pkgs)
	var raw []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
				Dirs:     pkg.Dirs,
				Global:   reg,
				diags:    &raw,
			}
			a.Run(pass)
		}
	}

	var out []Diagnostic
	for _, d := range raw {
		if d.waiver != "" && d.dirs != nil {
			if w := d.dirs.lookupWaiver(d.Pos, d.waiver); w != nil {
				w.used = true
				if w.reason == "" {
					out = append(out, Diagnostic{
						Pos:      d.Pos,
						Analyzer: d.Analyzer,
						Message:  fmt.Sprintf("//repro:%s waiver is missing a reason (waived: %s)", d.waiver, d.Message),
					})
				}
				continue
			}
		}
		out = append(out, d)
	}

	// An unused waiver is stale armor: the construct it excused is gone
	// (or never matched), and leaving it around invites cargo-culting.
	// Only kinds whose analyzer actually ran are judged — a partial run
	// (one analyzer over a fixture) says nothing about the others'
	// waivers.
	ranKinds := map[string]bool{}
	for _, a := range analyzers {
		if a.Waiver != "" {
			ranKinds[a.Waiver] = true
		}
	}
	for _, pkg := range pkgs {
		for key, w := range pkg.Dirs.waivers {
			if !w.used && ranKinds[key.kind] {
				out = append(out, Diagnostic{
					Pos:      pkg.Fset.Position(w.pos),
					Analyzer: "reprolint",
					Message:  fmt.Sprintf("unused //repro:%s waiver (nothing on this or the next line triggers it)", key.kind),
				})
			}
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Message < out[j].Message
	})
	return out
}
