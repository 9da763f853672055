package analysis

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The fixture harness is a stdlib-only analogue of
// golang.org/x/tools/go/analysis/analysistest: each directory under
// testdata/src/<name> is one package; lines carry expectations as
//
//	expr // want "regexp" "another regexp"
//
// and the test fails on any unmatched expectation or unexpected
// diagnostic. Fixtures import only the standard library, so the source
// importer resolves them offline.

// loadFixture parses and type-checks testdata/src/<name> into a
// *Package the runner accepts.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	build.Default.CgoEnabled = false
	dir := filepath.Join("testdata", "src", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("fixture %s has no Go files", name)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check(name, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", name, err)
	}
	return &Package{
		Dir:        dir,
		ImportPath: name,
		Fset:       fset,
		Files:      files,
		Pkg:        tpkg,
		Info:       info,
		Dirs:       parseDirectives(fset, files, info),
	}
}

// want is one expectation: a diagnostic on a line whose message
// matches the regexp.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// Expectations may be backquoted (the natural form for regexps) or
// double-quoted.
var wantRE = regexp.MustCompile("`([^`]*)`" + `|"((?:[^"\\]|\\.)*)"`)

// collectWants extracts // want expectations from the fixture comments.
func collectWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// Both comment forms carry expectations; the block form
				// exists for lines whose trailing position is already taken
				// by a //repro: directive (stale-waiver fixtures).
				raw := c.Text
				if strings.HasPrefix(raw, "/*") {
					raw = "// " + strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(raw, "/*"), "*/"))
				}
				text, ok := strings.CutPrefix(raw, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				ms := wantRE.FindAllStringSubmatch(text, -1)
				if len(ms) == 0 {
					t.Fatalf("%s:%d: malformed // want comment (no quoted regexps)", pos.Filename, pos.Line)
				}
				for _, m := range ms {
					expr := m[1]
					if expr == "" {
						expr = m[2]
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, expr, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// runFixture runs the analyzers over the fixture and checks the
// diagnostics against the // want expectations, both ways.
func runFixture(t *testing.T, name string, analyzers ...*Analyzer) {
	t.Helper()
	pkg := loadFixture(t, name)
	wants := collectWants(t, pkg)
	diags := Run([]*Package{pkg}, analyzers)

	matched := make([]bool, len(wants))
	for _, d := range diags {
		ok := false
		for i, w := range wants {
			if !matched[i] && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestWallclockFixture(t *testing.T)    { runFixture(t, "wallclock", Wallclock) }
func TestHotPathAllocFixture(t *testing.T) { runFixture(t, "hotpathalloc", HotPathAlloc) }
func TestLockFreeReadFixture(t *testing.T) { runFixture(t, "lockfreeread", LockFreeRead) }
func TestAtomicPubFixture(t *testing.T)    { runFixture(t, "atomicpub", AtomicPub) }
func TestFalseShareFixture(t *testing.T)   { runFixture(t, "falseshare", FalseShare) }

// TestWallclockIgnoresUnannotatedPackages: the same forbidden calls in
// a package without //repro:deterministic produce nothing.
func TestWallclockIgnoresUnannotatedPackages(t *testing.T) {
	runFixture(t, "notdeterministic", Wallclock)
}

// TestFixturesListAnalyzers keeps All() and the fixture set in sync: a
// new analyzer must arrive with a fixture.
func TestFixturesListAnalyzers(t *testing.T) {
	fixtures := map[string]bool{}
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		fixtures[e.Name()] = true
	}
	var missing []string
	for _, a := range All() {
		if !fixtures[a.Name] {
			missing = append(missing, a.Name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("analyzers without a testdata/src fixture: %s", strings.Join(missing, ", "))
	}
}

// TestDiagnosticString pins the finding format reprolint prints, the
// one editors and CI logs parse: file:line:col: analyzer: message.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Pos: token.Position{Filename: "a.go", Line: 3, Column: 5}, Analyzer: "wallclock", Message: "time.Now on a //repro:sim path"}
	if got, want := d.String(), "a.go:3:5: wallclock: time.Now on a //repro:sim path"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// recordingImporter is a fallback that answers every path with a fresh
// package and remembers what it was asked.
type recordingImporter struct{ asked []string }

func (r *recordingImporter) Import(path string) (*types.Package, error) {
	return r.ImportFrom(path, "", 0)
}

func (r *recordingImporter) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	r.asked = append(r.asked, path)
	return types.NewPackage(path, filepath.Base(path)), nil
}

// TestChainImporterImport checks the loader's plain Import entry point,
// which go/types reaches only through ImportFrom: a module package comes
// from the ones already type-checked, anything else from the fallback.
func TestChainImporterImport(t *testing.T) {
	own := types.NewPackage("repro/internal/window", "window")
	fb := &recordingImporter{}
	c := &chainImporter{loaded: map[string]*types.Package{own.Path(): own}, fallback: fb}
	if p, err := c.Import(own.Path()); err != nil || p != own {
		t.Errorf("module import resolved to %v, %v; want the loaded package", p, err)
	}
	if p, err := c.Import("fmt"); err != nil || p.Path() != "fmt" {
		t.Errorf("stdlib import resolved to %v, %v; want the fallback's", p, err)
	}
	if !slices.Equal(fb.asked, []string{"fmt"}) {
		t.Errorf("fallback asked for %v, want fmt only", fb.asked)
	}
}
