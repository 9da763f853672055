package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Directive names. Func/type/field directives must be the whole comment
// line (after the optional reason for waivers); the "//repro:" prefix with
// no space mirrors the //go: directive convention, which also keeps
// directives out of rendered godoc.
const (
	dirPrefix        = "//repro:"
	DirDeterministic = "deterministic"
	DirHotpath       = "hotpath"
	DirReadpath      = "readpath"
	DirImmutable     = "immutable"
	DirBuilder       = "builder"
	DirPolled        = "polled"
)

// waiverKey locates one waiver: a file line plus the waiver directive
// kind ("alloc-ok", "wallclock-ok", ...).
type waiverKey struct {
	file string
	line int
	kind string
}

// waiver is one parsed waiver comment.
type waiver struct {
	pos    token.Pos
	reason string
	used   bool
}

// Directives is the per-package directive index: which functions and
// types carry which annotations, plus every waiver comment by line.
type Directives struct {
	// Deterministic reports whether the package doc comment (of any
	// file) carries //repro:deterministic.
	Deterministic bool
	// DeterministicPos is where the package directive was written (for
	// diagnostics that reference it).
	DeterministicPos token.Pos

	// Funcs maps a declared function object to its directive set
	// (hotpath, readpath, builder).
	Funcs map[*types.Func]map[string]bool

	// Immutable holds the type names declared //repro:immutable.
	Immutable map[*types.TypeName]bool

	waivers map[waiverKey]*waiver
}

// FuncHas reports whether fn carries the directive dir.
func (d *Directives) FuncHas(fn *types.Func, dir string) bool {
	return d.Funcs[fn][dir]
}

// parseDirective splits one comment line into a directive name and its
// trailing argument text. ok is false when the line is not a directive:
// the line must begin exactly with "//repro:".
func parseDirective(text string) (name, arg string, ok bool) {
	if !strings.HasPrefix(text, dirPrefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, dirPrefix)
	name, arg, _ = strings.Cut(rest, " ")
	name = strings.TrimSpace(name)
	if name == "" {
		return "", "", false
	}
	return name, strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(arg), ":")), true
}

// groupDirectives yields the directives contained in a comment group.
func groupDirectives(g *ast.CommentGroup) map[string]bool {
	if g == nil {
		return nil
	}
	var out map[string]bool
	for _, c := range g.List {
		if name, _, ok := parseDirective(c.Text); ok {
			if out == nil {
				out = map[string]bool{}
			}
			out[name] = true
		}
	}
	return out
}

// parseDirectives builds the directive index for one type-checked
// package.
func parseDirectives(fset *token.FileSet, files []*ast.File, info *types.Info) *Directives {
	d := &Directives{
		Funcs:     map[*types.Func]map[string]bool{},
		Immutable: map[*types.TypeName]bool{},
		waivers:   map[waiverKey]*waiver{},
	}
	for _, f := range files {
		// Package directive: in the doc comment, or in any detached
		// comment group above the package clause (a directive separated
		// from the doc by a blank line still counts).
		pkgGroups := []*ast.CommentGroup{f.Doc}
		for _, g := range f.Comments {
			if g.End() < f.Package {
				pkgGroups = append(pkgGroups, g)
			}
		}
		for _, g := range pkgGroups {
			if g == nil {
				continue
			}
			for _, c := range g.List {
				if name, _, ok := parseDirective(c.Text); ok && name == DirDeterministic {
					d.Deterministic = true
					d.DeterministicPos = c.Pos()
				}
			}
		}

		// Waivers: every "-ok" directive anywhere in the file, keyed by
		// its line so a diagnostic on the same or the following line can
		// claim it.
		for _, g := range f.Comments {
			for _, c := range g.List {
				name, arg, ok := parseDirective(c.Text)
				if !ok || !strings.HasSuffix(name, "-ok") {
					continue
				}
				pos := fset.Position(c.Pos())
				d.waivers[waiverKey{pos.Filename, pos.Line, name}] = &waiver{pos: c.Pos(), reason: arg}
			}
		}

		// Function and type directives, from declaration doc comments.
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				dirs := groupDirectives(decl.Doc)
				if len(dirs) == 0 {
					continue
				}
				if fn, ok := info.Defs[decl.Name].(*types.Func); ok {
					d.Funcs[fn] = dirs
				}
			case *ast.GenDecl:
				declDirs := groupDirectives(decl.Doc)
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					dirs := map[string]bool{}
					for k := range declDirs {
						dirs[k] = true
					}
					for k := range groupDirectives(ts.Doc) {
						dirs[k] = true
					}
					for k := range groupDirectives(ts.Comment) {
						dirs[k] = true
					}
					if dirs[DirImmutable] {
						if tn, ok := info.Defs[ts.Name].(*types.TypeName); ok {
							d.Immutable[tn] = true
						}
					}
				}
			}
		}
	}
	return d
}

// lookupWaiver finds a waiver of the given kind covering a diagnostic
// at pos: on the same line (trailing comment) or the line directly
// above (full-line comment).
func (d *Directives) lookupWaiver(pos token.Position, kind string) *waiver {
	if w, ok := d.waivers[waiverKey{pos.Filename, pos.Line, kind}]; ok {
		return w
	}
	if w, ok := d.waivers[waiverKey{pos.Filename, pos.Line - 1, kind}]; ok {
		return w
	}
	return nil
}

// Registry is the cross-package directive view built from every loaded
// package before analyzers run: the atomicpub analyzer needs to know
// that repro/internal/core.Readout is immutable while it analyzes
// repro/internal/ensemble.
type Registry struct {
	immutable map[string]bool // "pkgpath.TypeName"
}

// NewRegistry indexes the directives of a load result.
func NewRegistry(pkgs []*Package) *Registry {
	r := &Registry{immutable: map[string]bool{}}
	for _, p := range pkgs {
		for tn := range p.Dirs.Immutable {
			r.immutable[tn.Pkg().Path()+"."+tn.Name()] = true
		}
	}
	return r
}

// IsImmutable reports whether the named type carries //repro:immutable
// in any loaded package.
func (r *Registry) IsImmutable(named *types.Named) bool {
	if named == nil {
		return false
	}
	tn := named.Obj()
	if tn == nil || tn.Pkg() == nil {
		return false
	}
	return r.immutable[tn.Pkg().Path()+"."+tn.Name()]
}
